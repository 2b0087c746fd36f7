package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/stats"
	"jouppi/internal/textplot"
	"jouppi/internal/workload"
)

// ablationQuasi compares the paper's simple head-only stream buffer with
// the quasi-sequential extension (a tag comparator on every entry), which
// the paper §4.1 identifies as the limitation of its model.
func ablationQuasi(cfg Config) *Result {
	names := benchNames()

	type row struct {
		l1          *cache.Cache
		head, quasi *core.Level
	}
	out := make([]row, len(names))
	// One pass per benchmark: the baseline and both stream-buffer
	// variants ride the same trace broadcast.
	cfg.plan(eachBench(func(b int) []*run {
		r := &out[b]
		r.l1 = cache.MustNew(l1Config(4096, 16))
		r.head = level(4096, 16, core.Aux{Stream: core.StreamConfig{Ways: 4, Depth: 4}})
		r.quasi = level(4096, 16, core.Aux{Stream: core.StreamConfig{Ways: 4, Depth: 4, Quasi: true}})
		return []*run{feedL1(dSide, r.l1, nil), feedLevel(dSide, r.head), feedLevel(dSide, r.quasi)}
	})...)

	headers := []string{"program", "head-only removed", "quasi removed", "gain (pp)"}
	var rows [][]string
	for i, name := range names {
		r := out[i]
		base := float64(r.l1.Stats().Misses)
		h := stats.PercentReduction(base, float64(r.head.Stats().FullMisses()))
		q := stats.PercentReduction(base, float64(r.quasi.Stats().FullMisses()))
		rows = append(rows, []string{name, fmtPct(h), fmtPct(q),
			fmt.Sprintf("%+.1f", q-h)})
	}
	text := textplot.Table(headers, rows) +
		"\n(4-way, 4-entry data stream buffers; % of baseline D misses removed)\n"
	return &Result{ID: "ablation-quasi", Title: "Quasi-sequential stream buffer ablation",
		Text: text, Headers: headers, Rows: rows}
}

// ablationStride evaluates the stride-detecting stream buffer (§5 future
// work) across an access-pattern gallery: a sequential sweep (the paper's
// home turf), the column-major matrix sweep (non-unit stride, where the
// plain buffer is useless), and a random-order pointer chase (where no
// prefetcher of this family can help — the technique's honest boundary).
func ablationStride(cfg Config) *Result {
	patterns := []struct {
		label string
		bench workload.Benchmark
	}{
		{"sequential (linpack)", workload.MustByName("linpack")},
		{"non-unit stride (strided)", workload.Strided()},
		{"pointer chase (ptrchase)", workload.PointerChase()},
	}

	headers := []string{"pattern", "baseline D misses",
		"sequential 4-way", "stride-detecting 4-way"}
	// Generate each pattern once; the baseline and both buffer
	// variants consume the same streamed trace.
	l1s := make([]*cache.Cache, len(patterns))
	fes := make([][2]*core.Level, len(patterns)) // sequential, stride-detecting
	passes := make([]*pass, len(patterns))
	for i, pat := range patterns {
		l1s[i] = cache.MustNew(l1Config(4096, 16))
		fes[i] = [2]*core.Level{
			level(4096, 16, core.Aux{Stream: core.StreamConfig{Ways: 4, Depth: 4}}),
			level(4096, 16, core.Aux{Stream: core.StreamConfig{Ways: 4, Depth: 4, DetectStride: true}}),
		}
		passes[i] = &pass{gen: pat.bench, runs: []*run{
			feedL1(dSide, l1s[i], nil), feedLevel(dSide, fes[i][0]), feedLevel(dSide, fes[i][1])}}
	}
	cfg.plan(passes...)
	var rows [][]string
	for i, pat := range patterns {
		base := l1s[i].Stats().Misses
		reduced := func(fe *core.Level) string {
			return fmtPct(stats.PercentReduction(float64(base), float64(fe.Stats().FullMisses())))
		}
		rows = append(rows, []string{pat.label, fmt.Sprint(base), reduced(fes[i][0]), reduced(fes[i][1])})
	}
	text := textplot.Table(headers, rows) +
		"\n(% of baseline D misses removed. Sequential streams are the paper's\n" +
		" case; the two-delta stride detector adds the column-major sweep; the\n" +
		" random pointer chase defeats both — prefetching by address arithmetic\n" +
		" cannot follow data-dependent pointers.)\n"
	return &Result{ID: "ablation-stride", Title: "Stream-buffer variants vs access patterns",
		Text: text, Headers: headers, Rows: rows}
}

// ablationL2Victim evaluates a victim cache behind the second-level cache
// (§3.5, "work ... is underway"). With the paper's 1MB L2 the benchmarks
// barely miss at all, so a smaller L2 is also shown to expose the
// conflict behaviour the paper anticipates for long traces.
func ablationL2Victim(cfg Config) *Result {
	names := benchNames()

	headers := []string{"program", "L2 size", "L2 misses (base)", "L2 misses (+8-entry VC)", "reduction"}
	var rows [][]string
	sizes := []int{1 << 20, 64 << 10}
	// A base and a victim-cached system per size, indexed
	// 2*size+{0,1}. All four systems of a benchmark share one trace pass.
	var sysCfgs []hierarchy.Config
	for _, size := range sizes {
		for _, entries := range []int{0, 8} {
			sysCfgs = append(sysCfgs, hierarchy.Config{
				L2:        cache.Config{Name: "L2", Size: size, LineSize: 128, Assoc: 1},
				L2Augment: core.Aux{Victim: entries},
			})
		}
	}
	results := cfg.benchResults(sysCfgs...)
	for b, name := range names {
		for s, size := range sizes {
			base, vc := results[b][2*s], results[b][2*s+1]
			bm := base.L2I.DemandMisses + base.L2D.DemandMisses
			vm := vc.L2I.DemandMisses + vc.L2D.DemandMisses
			label := fmt.Sprintf("%dKB", size/1024)
			rows = append(rows, []string{name, label,
				fmt.Sprint(bm), fmt.Sprint(vm),
				fmtPct(stats.PercentReduction(float64(bm), float64(vm)))})
		}
	}
	text := textplot.Table(headers, rows) +
		"\n(128B L2 lines; demand misses only. The 1MB L2 rows show the paper's regime —\n" +
		" too few misses for victim caching to matter on short traces; the 64KB rows\n" +
		" expose the L2 conflict behaviour the technique targets.)\n"
	return &Result{ID: "ablation-l2victim", Title: "L2 victim cache ablation",
		Text: text, Headers: headers, Rows: rows}
}

// ablationMissCmp verifies §3.2's claim that victim caching is always an
// improvement over miss caching, per benchmark and entry count.
func ablationMissCmp(cfg Config) *Result {
	names := benchNames()
	entries := []int{1, 2, 4, 15}

	type sweep struct {
		l1       *cache.Cache
		mcs, vcs [4]*core.Level // per entry count
	}
	sweeps := make([]sweep, len(names))
	// Nine configurations per benchmark (the baseline plus a miss
	// and a victim cache at each entry count) ride one trace pass.
	cfg.plan(eachBench(func(b int) []*run {
		sw := &sweeps[b]
		sw.l1 = cache.MustNew(l1Config(4096, 16))
		runs := []*run{feedL1(dSide, sw.l1, nil)}
		for ei, e := range entries {
			sw.mcs[ei] = level(4096, 16, core.Aux{MissCache: e})
			sw.vcs[ei] = level(4096, 16, core.Aux{Victim: e})
			runs = append(runs, feedLevel(dSide, sw.mcs[ei]), feedLevel(dSide, sw.vcs[ei]))
		}
		return runs
	})...)

	headers := []string{"program"}
	for _, e := range entries {
		headers = append(headers, fmt.Sprintf("mc%d", e), fmt.Sprintf("vc%d", e))
	}
	var rows [][]string
	violations := 0
	for i, name := range names {
		sw := sweeps[i]
		base := float64(sw.l1.Stats().Misses)
		row := []string{name}
		for ei := range entries {
			mc, vc := sw.mcs[ei].Stats().FullMisses(), sw.vcs[ei].Stats().FullMisses()
			mcPct := stats.PercentReduction(base, float64(mc))
			vcPct := stats.PercentReduction(base, float64(vc))
			if vc > mc {
				violations++
			}
			row = append(row, fmtPct(mcPct), fmtPct(vcPct))
		}
		rows = append(rows, row)
	}
	text := textplot.Table(headers, rows) +
		fmt.Sprintf("\n(%% of baseline D misses removed; victim-worse-than-miss violations: %d — the paper predicts 0)\n",
			violations)
	return &Result{ID: "ablation-misscmp", Title: "Victim vs miss cache comparison",
		Text: text, Headers: headers, Rows: rows}
}

// ablationReplacement compares LRU, FIFO, and Random replacement in the
// small fully-associative structures' underlying cache model at 4-way
// associativity — a design-space check the paper takes as given (its
// structures are all LRU).
func ablationReplacement(cfg Config) *Result {
	names := benchNames()
	policies := []cache.Replacement{cache.LRU, cache.FIFO, cache.Random}

	fes := make([][3]*core.Level, len(names)) // per policy
	// All three policies of a benchmark share one trace pass.
	cfg.plan(eachBench(func(b int) []*run {
		runs := make([]*run, len(policies))
		for p, pol := range policies {
			l1 := cache.MustNew(cache.Config{Size: 4096, LineSize: 16, Assoc: 4,
				Replacement: pol, RandomSeed: 12345})
			fes[b][p] = core.NewBaseline(l1, nil, core.DefaultTiming())
			runs[p] = feedLevel(dSide, fes[b][p])
		}
		return runs
	})...)

	headers := []string{"program", "LRU", "FIFO", "Random"}
	var rows [][]string
	for i, name := range names {
		rows = append(rows, []string{name, fmtRate(fes[i][0].Stats().MissRate()),
			fmtRate(fes[i][1].Stats().MissRate()), fmtRate(fes[i][2].Stats().MissRate())})
	}
	text := textplot.Table(headers, rows) +
		"\n(4KB 4-way data cache miss rates under each replacement policy)\n"
	return &Result{ID: "ablation-replacement", Title: "Replacement policy ablation",
		Text: text, Headers: headers, Rows: rows}
}
