// Command tracestat characterizes a trace file: reference counts,
// footprints, the sequential run-length distribution of the miss stream
// (the property stream buffers exploit), and a working-set curve.
//
// Every analysis is an independent streaming pass over the file — the
// trace is never materialized, so multi-gigabyte traces are fine.
//
// Usage:
//
//	tracestat -trace linpack.jtr
//	tracestat -trace trace.din -format din -size 4096 -line 16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jouppi/internal/analysis"
	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/introspect"
	"jouppi/internal/memtrace"
	"jouppi/internal/textplot"
	"jouppi/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "trace file (required)")
		format    = fs.String("format", "jtr", "trace format: jtr | din")
		size      = fs.Int("size", 4096, "probe cache size for run-length analysis")
		line      = fs.Int("line", 16, "line size in bytes")
		window    = fs.Int("window", 100000, "working-set window in accesses")
		maxRun    = fs.Int("maxrun", 32, "run-length histogram bound")
		curve     = fs.Bool("curve", false, "also print the LRU miss-ratio curve (Mattson stack-distance analysis)")
		hotspots  = fs.Int("hotspots", 0, "print the N most conflicting cache sets and their contending lines")
		pressure  = fs.Bool("pressure", false, "render per-set miss/eviction heatmaps and the hottest-set table for the probe cache geometry")
		lenient   = fs.Bool("lenient", false, "skip malformed trace records (up to -maxdrops) and report the degradation instead of failing")
		maxDrops  = fs.Uint64("maxdrops", 1<<20, "malformed-record cap in -lenient mode (0 = unlimited)")
		showVer   = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *showVer {
		fmt.Fprintln(stdout, version.String("tracestat"))
		return 0
	}

	if *tracePath == "" {
		fmt.Fprintln(stderr, "tracestat: -trace is required")
		return 2
	}
	tf, err := memtrace.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(stderr, "tracestat: -format must be jtr or din")
		return 2
	}

	// pass runs one streaming analysis over the file and folds decoding
	// errors into the analysis error. Every pass decodes independently, so
	// in lenient mode each sees (and skips) the same damage; the
	// degradation report of the first pass is printed once.
	var degradation *memtrace.Degradation
	pass := func(analyze func(src memtrace.Source) error) error {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		dec, err := memtrace.NewDecoder(f, tf)
		if err != nil {
			return err
		}
		if *lenient {
			dec.Lenient(*maxDrops)
		}
		if err := analyze(dec); err != nil {
			return err
		}
		if err := dec.Err(); err != nil {
			return err
		}
		if degradation == nil {
			d := dec.Degradation()
			degradation = &d
		}
		return nil
	}

	var s analysis.Summary
	if err := pass(func(src memtrace.Source) error {
		var err error
		s, err = analysis.Summarize(src, *line)
		return err
	}); err != nil {
		fmt.Fprintln(stderr, "tracestat:", err)
		return 1
	}
	fmt.Fprintf(stdout, "trace:            %s (%s)\n", *tracePath, *format)
	if *lenient {
		fmt.Fprintf(stdout, "degradation:      %s\n", degradation)
	}
	fmt.Fprintf(stdout, "accesses:         %d (%d ifetch, %d load, %d store)\n",
		s.Accesses, s.Instructions, s.Loads, s.Stores)
	fmt.Fprintf(stdout, "footprint (%dB):  I %d lines / %d KB, D %d lines / %d KB\n",
		s.LineSize, s.UniqueILines, s.IFootprint/1024, s.UniqueDLines, s.DFootprint/1024)

	for _, sideName := range []string{"instruction", "data"} {
		instr := sideName == "instruction"
		var h *analysis.Histogram
		if err := pass(func(src memtrace.Source) error {
			var err error
			h, err = analysis.MissRunLengths(src, instr, *size, *line, *maxRun)
			return err
		}); err != nil {
			fmt.Fprintln(stderr, "tracestat:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s miss-stream sequential runs (probe: %dB direct-mapped, %dB lines):\n",
			sideName, *size, *line)
		if h.Total() == 0 {
			fmt.Fprintln(stdout, "  (no misses)")
			continue
		}
		fmt.Fprintf(stdout, "  runs %d, mean length %.2f lines, runs > %d lines: %d\n",
			h.Total(), h.Mean(), *maxRun-1, h.Overflow)
		cum := h.CumulativeFraction()
		for _, p := range []int{1, 2, 4, 8, 16} {
			if p < len(cum) {
				fmt.Fprintf(stdout, "  ≤ %2d lines: %5.1f%%\n", p, cum[p]*100)
			}
		}
	}

	var ws []int
	if err := pass(func(src memtrace.Source) error {
		var err error
		ws, err = analysis.WorkingSetCurve(src, *line, *window)
		return err
	}); err != nil {
		fmt.Fprintln(stderr, "tracestat:", err)
		return 1
	}
	if len(ws) > 1 {
		xs := make([]float64, len(ws))
		ys := make([]float64, len(ws))
		for i, v := range ws {
			xs[i] = float64(i)
			ys[i] = float64(v)
		}
		fmt.Fprintf(stdout, "\nworking set (distinct %dB lines per window of %d accesses):\n", *line, *window)
		fmt.Fprint(stdout, textplot.Lines("", "window", "lines",
			[]textplot.Series{{Name: "working set", X: xs, Y: ys}}, 60, 10))
	}

	if *hotspots > 0 {
		for _, sideName := range []string{"instruction", "data"} {
			var hs []analysis.Hotspot
			if err := pass(func(src memtrace.Source) error {
				var err error
				hs, err = analysis.ConflictHotspots(src, sideName == "instruction",
					*size, *line, *hotspots)
				return err
			}); err != nil {
				fmt.Fprintln(stderr, "tracestat:", err)
				return 1
			}
			fmt.Fprintf(stdout, "\n%s conflict hotspots (%dB direct-mapped, %dB lines):\n",
				sideName, *size, *line)
			if len(hs) == 0 {
				fmt.Fprintln(stdout, "  (no misses)")
				continue
			}
			for _, h := range hs {
				fmt.Fprintf(stdout, "  set %4d: %7d misses, %3d contending lines, hottest:",
					h.Set, h.Misses, h.Lines)
				for _, la := range h.TopLines {
					fmt.Fprintf(stdout, " 0x%x", la*uint64(*line))
				}
				fmt.Fprintln(stdout)
			}
		}
	}

	if *pressure {
		// Set pressure replays each side through a plain cache of the
		// -size/-line geometry with an introspection probe on it, yielding
		// the same per-set heat views the simulators print.
		probeCfg := cache.Config{Name: "probe", Size: *size, LineSize: *line, Assoc: 1}
		if err := probeCfg.Validate(); err != nil {
			fmt.Fprintln(stderr, "tracestat:", err)
			return 2
		}
		for _, sideName := range []string{"instruction", "data"} {
			instr := sideName == "instruction"
			l := core.NewBaseline(cache.MustNew(probeCfg), nil, core.Timing{})
			probe := introspect.AttachLevel(l, introspect.Options{Window: -1, Heatmap: true})
			if err := pass(func(src memtrace.Source) error {
				memtrace.Each(src, func(a memtrace.Access) {
					if (a.Kind == memtrace.Ifetch) == instr {
						l.Access(uint64(a.Addr), a.Kind == memtrace.Store)
					}
				})
				return nil
			}); err != nil {
				fmt.Fprintln(stderr, "tracestat:", err)
				return 1
			}
			heat := probe.Heat()
			fmt.Fprintf(stdout, "\n%s set pressure (%dB direct-mapped, %dB lines):\n",
				sideName, *size, *line)
			fmt.Fprint(stdout, introspect.RenderHeat("misses per set", heat, introspect.HeatMisses, 64))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.RenderHeat("conflict evictions per set", heat, introspect.HeatEvictions, 64))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.TopSetsTable(heat, introspect.HeatEvictions, 8))
		}
	}

	if *curve {
		// One Mattson pass gives the fully-associative LRU miss ratio at
		// every capacity; print it per side for powers of two up to 64K
		// lines.
		caps := []int{16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
		for _, sideName := range []string{"instruction", "data"} {
			instr := sideName == "instruction"
			sd := analysis.MustNewStackDist(*line, caps[len(caps)-1])
			if err := pass(func(src memtrace.Source) error {
				memtrace.Each(src, func(a memtrace.Access) {
					if (a.Kind == memtrace.Ifetch) == instr {
						sd.Access(uint64(a.Addr))
					}
				})
				return nil
			}); err != nil {
				fmt.Fprintln(stderr, "tracestat:", err)
				return 1
			}
			if sd.Accesses() == 0 {
				continue
			}
			ratios, err := sd.MissRatioCurve(caps)
			if err != nil {
				fmt.Fprintln(stderr, "tracestat:", err)
				return 1
			}
			fmt.Fprintf(stdout, "\n%s fully-associative LRU miss-ratio curve (%dB lines):\n",
				sideName, *line)
			for i, c := range caps {
				bytes := c * (*line)
				label := fmt.Sprintf("%d B", bytes)
				if bytes >= 1024 {
					label = fmt.Sprintf("%d KB", bytes/1024)
				}
				fmt.Fprintf(stdout, "  %8s: %.4f\n", label, ratios[i])
			}
		}
	}
	return 0
}
