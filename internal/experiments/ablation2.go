package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/prefetch"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
	"jouppi/internal/workload"
)

// ablationAssoc quantifies the paper's §3 premise: a direct-mapped cache
// with a small victim cache recovers most of the miss-rate advantage of
// set associativity while keeping a direct-mapped access path. Columns
// are effective D miss rates.
func ablationAssoc(cfg Config) *Result {
	names := benchNames()

	mk := func(assoc, victim int) *core.Level {
		l1 := cache.MustNew(cache.Config{Size: 4096, LineSize: 16, Assoc: assoc})
		return core.NewVictimCache(l1, victim, nil, core.DefaultTiming())
	}
	fes := make([][5]*core.Level, len(names)) // dm, dm+vc4, 2-way, 4-way, fully-assoc
	// One pass per benchmark feeds all five caches.
	cfg.plan(eachBench(func(b int) []*run {
		fes[b] = [5]*core.Level{mk(1, 0), mk(1, 4), mk(2, 0), mk(4, 0), mk(cache.FullyAssociative, 0)}
		runs := make([]*run, len(fes[b]))
		for j, fe := range fes[b] {
			runs[j] = feedLevel(dSide, fe)
		}
		return runs
	})...)

	headers := []string{"program", "direct", "direct+vc4", "2-way", "4-way", "fully-assoc"}
	var rows [][]string
	recovered := 0
	for i, name := range names {
		var r [5]float64
		for j, fe := range fes[i] {
			r[j] = fe.Stats().MissRate()
		}
		rows = append(rows, []string{name, fmtRate(r[0]), fmtRate(r[1]),
			fmtRate(r[2]), fmtRate(r[3]), fmtRate(r[4])})
		if r[1] <= r[2]*1.25 { // vc4 within 25% of 2-way
			recovered++
		}
	}
	text := textplot.Table(headers, rows) +
		fmt.Sprintf("\n(D miss rates, 4KB, 16B lines. The 4-entry victim cache lands within 25%%\n"+
			" of 2-way associativity on %d of %d benchmarks while keeping the\n"+
			" direct-mapped critical path the paper's §2 argues for.)\n", recovered, len(names))
	return &Result{ID: "ablation-assoc", Title: "Associativity vs victim caching",
		Text: text, Headers: headers, Rows: rows}
}

// ablationPrefetchCmp tests the paper's claim that stream buffers beat the
// classic prefetch techniques: per benchmark and side, the percentage of
// demand misses removed by prefetch-on-miss, tagged prefetch, prefetch-
// always, and a single 4-entry stream buffer, plus the average stall
// cycles per access (where in-cache prefetching pays pollution and
// latency costs the paper highlights).
func ablationPrefetchCmp(cfg Config) *Result {
	names := benchNames()

	type cell struct {
		removed float64
		stall   float64
	}
	// One pass per benchmark: on each side a baseline, the three
	// prefetchers and the two stream buffers.
	policies := []prefetch.Policy{prefetch.OnMiss, prefetch.Tagged, prefetch.Always}
	type sides struct {
		l1  [2]*cache.Cache
		pfs [2][3]*prefetch.FrontEnd // per policy
		sbs [2][2]*core.Level        // single, 4-way
	}
	structs := make([]sides, len(names))
	cfg.plan(eachBench(func(b int) []*run {
		st := &structs[b]
		var runs []*run
		for sd := iSide; sd <= dSide; sd++ {
			st.l1[sd] = cache.MustNew(l1Config(4096, 16))
			runs = append(runs, feedL1(sd, st.l1[sd], nil))
			for pi, pol := range policies {
				st.pfs[sd][pi] = prefetch.New(cache.MustNew(l1Config(4096, 16)), pol,
					prefetch.Timing{MissPenalty: 24, FillLatency: 24}, nil)
				runs = append(runs, feedPrefetch(sd, st.pfs[sd][pi]))
			}
			for wi, ways := range []int{1, 4} {
				st.sbs[sd][wi] = level(4096, 16, core.Aux{Stream: core.StreamConfig{Ways: ways, Depth: 4}})
				runs = append(runs, feedLevel(sd, st.sbs[sd][wi]))
			}
		}
		return runs
	})...)

	// [bench][side][0..2 prefetch policies, 3 = single stream
	// buffer, 4 = 4-way stream buffers]
	out := make([][2][5]cell, len(names))
	for b, st := range structs {
		for sd := range st.l1 {
			base := st.l1[sd].Stats().Misses
			for pi, fe := range st.pfs[sd] {
				s := fe.Stats()
				out[b][sd][pi] = cell{
					removed: stats.PercentReduction(float64(base), float64(s.Misses)),
					stall:   float64(s.StallCycles) / float64(max(1, s.Accesses)),
				}
			}
			for wi, fe := range st.sbs[sd] {
				s := fe.Stats()
				out[b][sd][3+wi] = cell{
					removed: stats.PercentReduction(float64(base), float64(s.FullMisses())),
					stall:   float64(s.StallCycles) / float64(max(1, s.Accesses)),
				}
			}
		}
	}

	headers := []string{"program", "side", "on-miss", "tagged", "always", "stream-1", "stream-4",
		"stall: on-miss", "tagged", "always", "stream-1", "stream-4"}
	var rows [][]string
	for b, name := range names {
		for sd := 0; sd < 2; sd++ {
			c := out[b][sd]
			rows = append(rows, []string{name, map[int]string{0: "I", 1: "D"}[sd],
				fmtPct(c[0].removed), fmtPct(c[1].removed),
				fmtPct(c[2].removed), fmtPct(c[3].removed), fmtPct(c[4].removed),
				fmt.Sprintf("%.2f", c[0].stall), fmt.Sprintf("%.2f", c[1].stall),
				fmt.Sprintf("%.2f", c[2].stall), fmt.Sprintf("%.2f", c[3].stall),
				fmt.Sprintf("%.2f", c[4].stall)})
		}
	}
	text := textplot.Table(headers, rows) +
		"\n(% of baseline misses removed, and stall cycles per access. Tagged and\n" +
		" always-prefetch remove many misses by filling the cache speculatively,\n" +
		" but each line is fetched only one ahead, so with a 24-cycle fill the\n" +
		" processor stalls on in-flight lines; the stream buffer keeps several\n" +
		" fills outstanding and wins on stall cycles (instruction side), while the\n" +
		" 4-way buffer closes the data-side gap — §4's argument, quantified.)\n"
	return &Result{ID: "ablation-prefetchcmp",
		Title: "Stream buffers vs classic prefetching",
		Text:  text, Headers: headers, Rows: rows}
}

// ablationDepth sweeps stream-buffer depth (entries per way), fixing
// 4 ways on the data side — the design choice the paper sets to 4 based
// on its pipelined-fill example.
func ablationDepth(cfg Config) *Result {
	names := benchNames()
	depths := []int{1, 2, 4, 8, 16}

	// Depth does not change which misses a buffer covers (it
	// refills as the head is consumed); it changes how many fills
	// are outstanding, i.e. whether prefetched lines are ready in
	// time. Measure both: in-flight hit fraction and stall cycles
	// per access — the §4.1 pipelined-fill argument for depth 4.
	type cell struct {
		removed  float64
		inflight float64 // % of stream hits that had to wait
		stall    float64 // stall cycles per access
	}
	l1s := make([]*cache.Cache, len(names))
	fes := make([][5]*core.Level, len(names)) // per depth
	cfg.plan(eachBench(func(b int) []*run {
		l1s[b] = cache.MustNew(l1Config(4096, 16))
		runs := []*run{feedL1(dSide, l1s[b], nil)}
		for di, d := range depths {
			fes[b][di] = level(4096, 16, core.Aux{Stream: core.StreamConfig{Ways: 4, Depth: d}})
			runs = append(runs, feedLevel(dSide, fes[b][di]))
		}
		return runs
	})...)
	out := make([][]cell, len(names))
	for i := range out {
		out[i] = make([]cell, len(depths))
		for di, fe := range fes[i] {
			st := fe.Stats()
			inflight := 0.0
			if st.StreamHits > 0 {
				inflight = 100 * float64(st.StreamInFlightHits) / float64(st.StreamHits)
			}
			out[i][di] = cell{
				removed:  stats.PercentReduction(float64(l1s[i].Stats().Misses), float64(st.FullMisses())),
				inflight: inflight,
				stall:    float64(st.StallCycles) / float64(max(1, st.Accesses)),
			}
		}
	}

	headers := []string{"program", "removed"}
	for _, d := range depths {
		headers = append(headers, fmt.Sprintf("d%d wait%%", d), fmt.Sprintf("d%d stall", d))
	}
	var rows [][]string
	for i, name := range names {
		row := []string{name, fmtPct(out[i][len(depths)-1].removed)}
		for di := range depths {
			row = append(row, fmtPct(out[i][di].inflight),
				fmt.Sprintf("%.2f", out[i][di].stall))
		}
		rows = append(rows, row)
	}
	text := textplot.Table(headers, rows) +
		"\n(4-way data buffers. 'removed' is depth-independent — the buffer refills\n" +
		" as its head is consumed — but shallow buffers cannot keep enough fills\n" +
		" outstanding: 'wait%' is the share of stream hits that stalled on an\n" +
		" in-flight line and 'stall' the cycles per access. Depth 4 sits at the\n" +
		" knee, as the paper's pipelined-fill example predicts.)\n"
	return &Result{ID: "ablation-depth", Title: "Stream buffer depth sweep",
		Text: text, Headers: headers, Rows: rows}
}

// ablationWritePolicy compares write-through and write-back data caches:
// miss rates are identical under write-allocate, but the write traffic to
// the next level differs enormously — the paper's §2 bandwidth argument
// for pipelined second-level caches.
func ablationWritePolicy(cfg Config) *Result {
	names := benchNames()

	mk := func(pol cache.WritePolicy) *cache.Cache {
		return cache.MustNew(cache.Config{Size: 4096, LineSize: 16, Assoc: 1, WritePolicy: pol})
	}
	l1s := make([][2]*cache.Cache, len(names)) // write-through, write-back
	cfg.plan(eachBench(func(b int) []*run {
		l1s[b] = [2]*cache.Cache{mk(cache.WriteThrough), mk(cache.WriteBack)}
		return []*run{feedL1(dSide, l1s[b][0], nil), feedL1(dSide, l1s[b][1], nil)}
	})...)

	headers := []string{"program", "stores (WT traffic)", "writebacks (WB traffic)",
		"traffic ratio", "misses equal?"}
	var rows [][]string
	for i, name := range names {
		wt, wb := l1s[i][0].Stats(), l1s[i][1].Stats()
		ratio := "-"
		if wb.Writebacks > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(wt.Writes)/float64(wb.Writebacks))
		}
		equal := "yes"
		if wt.Misses != wb.Misses {
			equal = fmt.Sprintf("no (%d vs %d)", wt.Misses, wb.Misses)
		}
		rows = append(rows, []string{name, fmt.Sprint(wt.Writes),
			fmt.Sprint(wb.Writebacks), ratio, equal})
	}
	text := textplot.Table(headers, rows) +
		"\n(4KB write-allocate D cache. Write-through sends every store down; a\n" +
		" write-back cache sends only dirty evictions — the §2 store-bandwidth\n" +
		" pressure that forces a pipelined second level under write-through.)\n"
	return &Result{ID: "ablation-writepolicy", Title: "Write policy traffic comparison",
		Text: text, Headers: headers, Rows: rows}
}

// ablationMultiprog studies the §5 future-work question: do victim caches
// and stream buffers survive multiprogramming? Three programs share the
// caches round-robin at several context-switch quanta.
func ablationMultiprog(cfg Config) *Result {
	quanta := []int{1000, 10000, 100000}

	// A baseline and an improved system per quantum, each pair fed by
	// one pass over its generated multiprogram.
	systems := make([][]*hierarchy.System, len(quanta))
	passes := make([]*pass, len(quanta))
	for qi, q := range quanta {
		var runs []*run
		systems[qi], runs = feedSystems(hierarchy.Config{}, improvedConfig())
		passes[qi] = &pass{gen: workload.Multiprogram(q, workload.Ccom(), workload.Grr(), workload.Yacc()),
			runs: runs}
	}
	cfg.plan(passes...)

	headers := []string{"quantum", "base I/D missrate", "improved I/D missrate", "speedup"}
	var rows [][]string
	for qi, q := range quanta {
		base := systems[qi][0].Results(passes[qi].instrs)
		imp := systems[qi][1].Results(passes[qi].instrs)
		rows = append(rows, []string{fmt.Sprint(q),
			fmt.Sprintf("%s/%s", fmtRate(base.I.MissRate()), fmtRate(base.D.MissRate())),
			fmt.Sprintf("%s/%s", fmtRate(imp.I.MissRate()), fmtRate(imp.D.MissRate())),
			fmt.Sprintf("%.2fx", float64(base.Breakdown.Total())/float64(imp.Breakdown.Total()))})
	}
	text := textplot.Table(headers, rows) +
		"\n(three processes sharing the baseline caches round-robin; the improved\n" +
		" system is the paper's fig 5-1 configuration. Victim caches and stream\n" +
		" buffers keep helping under context switching — §5's open question.)\n"
	return &Result{ID: "ablation-multiprog", Title: "Multiprogramming ablation",
		Text: text, Headers: headers, Rows: rows}
}
