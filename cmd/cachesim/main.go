// Command cachesim replays a binary trace file (produced by tracegen)
// through one configurable first-level cache system and reports hit/miss
// statistics. It is the standalone single-configuration harness; for the
// paper's full experiment suite use jouppisim.
//
// Usage:
//
//	cachesim -trace linpack.jtr -side data -size 4096 -line 16 -victim 4 -ways 4
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/introspect"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/textplot"
	"jouppi/internal/version"
	"jouppi/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath  = fs.String("trace", "", "trace file (required)")
		format     = fs.String("format", "jtr", "trace format: jtr | din")
		sideStr    = fs.String("side", "data", "which references to simulate: instr | data | all")
		size       = fs.Int("size", 4096, "cache size in bytes")
		line       = fs.Int("line", 16, "line size in bytes")
		assoc      = fs.Int("assoc", 1, "associativity (1 = direct-mapped)")
		missCache  = fs.Int("misscache", 0, "miss cache entries")
		victim     = fs.Int("victim", 0, "victim cache entries")
		ways       = fs.Int("ways", 0, "stream buffer ways (0 = none)")
		depth      = fs.Int("depth", 4, "stream buffer depth")
		quasi      = fs.Bool("quasi", false, "quasi-sequential stream buffer lookup")
		stride     = fs.Bool("stride", false, "stride-detecting stream buffers")
		classify3  = fs.Bool("classify", false, "also report the 3C miss classification of the plain cache")
		fanouts    = fs.String("fanout", "", "decode the trace once and replay it through multiple configurations: semicolon-separated specs in the configuration grammar, each a comma-separated key=value list over size, line, assoc, misscache, victim, ways, depth, quasi, stride applied over the main flags (empty spec = the main-flag configuration)")
		phase      = fs.Int("phase", 0, "render a phase plot: miss rate per window of this many kept accesses (0 = off)")
		heatmap    = fs.Bool("heatmap", false, "render per-set access/miss/eviction heatmaps and the hottest-set table")
		missSample = fs.Int("misssample", 0, "sample every Nth L1 miss into a bounded event ring (0 = off)")
		missCap    = fs.Int("misscap", 0, "miss-event ring capacity (default 1024)")
		missDump   = fs.String("missdump", "", "write the sampled miss events as JSONL to this file (enables -misssample 1 unless set)")
		lenient    = fs.Bool("lenient", false, "skip malformed trace records (up to -maxdrops) and report the degradation instead of failing")
		maxDrops   = fs.Uint64("maxdrops", 1<<20, "malformed-record cap in -lenient mode (0 = unlimited)")
		metrics    = fs.String("metrics-addr", "", "serve /metrics, /vars and /debug/pprof on this address for the duration of the replay")
		progress   = fs.Bool("progress", false, "render a live progress line (records decoded, accesses/sec) on stderr")
		showVer    = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *showVer {
		fmt.Fprintln(stdout, version.String("cachesim"))
		return 0
	}

	if *tracePath == "" {
		fmt.Fprintln(stderr, "cachesim: -trace is required")
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-phase", *phase}, {"-misssample", *missSample}, {"-misscap", *missCap}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "cachesim: %s must not be negative, got %d\n", f.name, f.v)
			return 2
		}
	}
	if *fanouts != "" && *classify3 {
		fmt.Fprintln(stderr, "cachesim: -classify is not supported with -fanout")
		return 2
	}
	if *missDump != "" && *missSample == 0 {
		*missSample = 1
	}
	introOn := *phase > 0 || *heatmap || *missSample > 0
	if *fanouts != "" && introOn {
		fmt.Fprintln(stderr, "cachesim: -phase/-heatmap/-misssample/-missdump are not supported with -fanout")
		return 2
	}

	tf, err := memtrace.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(stderr, "cachesim: -format must be jtr or din")
		return 2
	}
	var side []memtrace.Kind // nil: every reference
	switch *sideStr {
	case "instr":
		side = []memtrace.Kind{memtrace.Ifetch}
	case "data":
		side = []memtrace.Kind{memtrace.Load, memtrace.Store}
	case "all":
	default:
		fmt.Fprintln(stderr, "cachesim: -side must be instr, data, or all")
		return 2
	}

	// The main flags are the base every -fanout spec is parsed over; the
	// single configuration is the empty spec over them. Every
	// configuration is built, and so validated, before any I/O.
	geom := sim.CacheGeometry{Size: *size, LineSize: *line, Assoc: *assoc}
	base := sim.Config{L1I: geom, L1D: geom, D: sim.Augmentation{
		MissCacheEntries: *missCache, VictimCacheEntries: *victim,
		Stream: &sim.StreamOptions{Ways: *ways, Depth: *depth, Quasi: *quasi, DetectStride: *stride}}}
	labels, fes, groups, err := frontEnds(*fanouts, base)
	if err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 2
	}

	// Observability plumbing. The registry backs both the /metrics
	// endpoint and the progress line; when neither flag is set reg stays
	// nil and every counter below is a no-op.
	var reg *telemetry.Registry
	if *metrics != "" || *progress {
		reg = telemetry.NewRegistry()
	}
	if *metrics != "" {
		srv, err := telemetry.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintln(stderr, "cachesim:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "cachesim: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", srv.Addr())
	}

	// Every configuration replays the side's references in one pass, one
	// consumer per distinct cache. The first configuration also carries
	// the -classify classifier, the introspection probe and the live
	// replay counters; -fanout allows none of them but the counters.
	fe := fes[0]
	l1 := fe.Cache()
	l1cfg := l1.Config()
	first := &groupConsumer{g: groups[0]}
	if *classify3 {
		first.cl = classify.MustNew(l1cfg.Size, l1cfg.LineSize)
	}

	// The introspection probe is the level's tap, a pure reader:
	// attaching it changes none of the numbers reported below. With
	// -classify its sampled events read their class from the classifier.
	var probe *introspect.Probe
	if introOn {
		opts := introspect.Options{Window: *phase, Heatmap: *heatmap,
			MissEvery: *missSample, MissCap: *missCap, Classifier: first.cl}
		if *phase == 0 {
			opts.Window = -1
		}
		probe = introspect.AttachLevel(fe, opts)
		probe.AttachTelemetry(reg, "l1")
	}
	if reg != nil {
		fe.Instrument(reg, "sim_")
		if first.cl != nil {
			first.cl.Instrument(reg.Deltas(
				"sim_3c_compulsory_misses_total", "plain-cache misses classified compulsory",
				"sim_3c_capacity_misses_total", "plain-cache misses classified capacity",
				"sim_3c_conflict_misses_total", "plain-cache misses classified conflict"))
		}
	}
	consumers := []fanout.Consumer{first}
	for _, g := range groups[1:] {
		consumers = append(consumers, &groupConsumer{g: g})
	}

	// The trace streams through the simulator in buffered chunks — it is
	// never materialized, so file size does not bound what cachesim can
	// replay.
	f, err := os.Open(*tracePath)
	if err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}
	defer f.Close()
	dec, err := memtrace.NewDecoder(f, tf)
	if err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}
	if *lenient {
		dec.Lenient(*maxDrops)
	}
	decoded := reg.Counter("memtrace_records_total", "trace records decoded")
	dec.Instrument(decoded, reg.Counter("memtrace_dropped_total", "trace records dropped in lenient mode"))

	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(stderr, decoded, nil, nil)
		prog.Start(200 * time.Millisecond)
		defer prog.Stop()
	}
	// The side is picked out once, before the fan-out, so no
	// configuration tests a reference's kind.
	var src memtrace.Source = dec
	if side != nil {
		src = memtrace.FilterKinds(dec, side...)
	}
	eng := fanout.New(fanout.Config{})
	eng.AttachTelemetry(reg)
	err = eng.Replay(context.Background(), src, consumers...)
	if err == nil {
		err = dec.Err()
	}
	fe.Flush()
	if prog != nil {
		prog.Stop()
	}
	if *lenient {
		memtrace.PublishDegradation(reg, dec.Degradation())
	}
	if err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}

	if *fanouts != "" {
		if *lenient {
			fmt.Fprintf(stdout, "degradation:     %s\n", dec.Degradation())
		}
		printFanout(stdout, labels, fes)
		return 0
	}
	degraded := ""
	if *lenient {
		degraded = fmt.Sprint(dec.Degradation())
	}
	printStats(stdout, fe.Name(), l1cfg.Size, l1cfg.LineSize, l1cfg.Assoc, fe.Stats(), degraded)
	if first.cl != nil {
		c := first.cl.Counts()
		total := max(1, c.Total())
		fmt.Fprintf(stdout, "3C (plain L1):   compulsory %d (%.1f%%), capacity %d (%.1f%%), conflict %d (%.1f%%)\n",
			c.Compulsory, 100*float64(c.Compulsory)/float64(total),
			c.Capacity, 100*float64(c.Capacity)/float64(total),
			c.Conflict, 100*float64(c.Conflict)/float64(total))
	}
	if probe != nil {
		if *phase > 0 {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.RenderPhases(
				fmt.Sprintf("%s miss rate per %d-access window", fe.Name(), *phase),
				[]textplot.Series{introspect.PhaseSeries(fe.Name(), probe.Windows())},
				72, 16))
		}
		if *heatmap {
			heat := probe.Heat()
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.RenderHeat("accesses per set", heat, introspect.HeatAccesses, 64))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.RenderHeat("misses per set", heat, introspect.HeatMisses, 64))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.RenderHeat("conflict evictions per set", heat, introspect.HeatEvictions, 64))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.TopSetsTable(heat, introspect.HeatEvictions, 8))
		}
		if *missSample > 0 {
			events := probe.Events()
			fmt.Fprintf(stdout, "miss trace:      %d sampled (every %d), %d dropped by the ring\n",
				len(events), *missSample, probe.Dropped())
			if *missDump != "" {
				df, err := os.Create(*missDump)
				if err != nil {
					fmt.Fprintln(stderr, "cachesim:", err)
					return 1
				}
				j := telemetry.NewJournal(df)
				probe.EmitMissEvents(j, *sideStr)
				err = j.Err()
				if cerr := df.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fmt.Fprintln(stderr, "cachesim:", err)
					return 1
				}
				fmt.Fprintf(stdout, "miss dump:       %s\n", *missDump)
			}
		}
	}
	return 0
}

// printStats renders the replayed front-end's counters.
func printStats(stdout io.Writer, name string, size, line, assoc int, st core.Stats, degraded string) {
	fmt.Fprintf(stdout, "configuration:   %s over %dB/%dB/%d-way cache\n", name, size, line, assoc)
	if degraded != "" {
		// The degradation report rides alongside the results so damaged
		// inputs are visible, never silent.
		fmt.Fprintf(stdout, "degradation:     %s\n", degraded)
	}
	fmt.Fprintf(stdout, "accesses:        %d\n", st.Accesses)
	fmt.Fprintf(stdout, "L1 hits:         %d\n", st.L1Hits)
	fmt.Fprintf(stdout, "L1 misses:       %d (raw rate %.4f)\n", st.L1Misses, st.RawMissRate())
	if st.AuxHits > 0 {
		fmt.Fprintf(stdout, "aux hits:        %d (victim %d, miss-cache %d, stream %d)\n",
			st.AuxHits, st.VictimHits, st.MissCacheHits, st.StreamHits)
	}
	fmt.Fprintf(stdout, "full misses:     %d (effective rate %.4f)\n", st.FullMisses(), st.MissRate())
	if st.PrefetchIssued > 0 {
		fmt.Fprintf(stdout, "prefetches:      %d issued, %d used (%.1f%% accuracy)\n",
			st.PrefetchIssued, st.PrefetchUsed,
			100*float64(st.PrefetchUsed)/float64(st.PrefetchIssued))
	}
	fmt.Fprintf(stdout, "stall cycles:    %d (%.2f per access)\n",
		st.StallCycles, float64(st.StallCycles)/float64(max(1, st.Accesses)))
}
