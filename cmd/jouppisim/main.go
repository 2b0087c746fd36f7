// Command jouppisim regenerates the paper's tables and figures.
//
// Usage:
//
//	jouppisim -list                 # list available experiments
//	jouppisim -run fig3-5           # run one experiment
//	jouppisim -run all              # run everything, in paper order
//	jouppisim -run fig5-1 -scale 1  # bigger workloads (slower, smoother)
//
// Single-system replay with introspection (phase plot, per-set heatmaps,
// a full miss-event dump):
//
//	jouppisim -replay ccom -system victim=4 -phase 8192 -heatmap -missdump miss.jsonl
//
// -system takes one spec in the configuration grammar shared with
// cachesim -fanout and cachesimd (see sim.ParseConfig), e.g.
// sys=improved, victim=4, or ways=4,depth=8.
//
// Long sweeps are resilient: each experiment runs isolated (a crash in
// one reports a failure and the suite continues), -timeout bounds each
// experiment, and -checkpoint/-resume persist completed results so an
// interrupted sweep — Ctrl-C included — picks up where it left off:
//
//	jouppisim -run all -checkpoint sweep.json            # ^C midway…
//	jouppisim -run all -checkpoint sweep.json -resume    # …finishes the rest
//
// Output is plain text: tables and ASCII charts matching the paper's
// exhibits. Results for the default scale are recorded in EXPERIMENTS.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"jouppi/internal/experiments"
	"jouppi/internal/telemetry"
	"jouppi/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: 0 success, 1 runtime failure (an experiment crashed or
// output could not be written), 2 usage error, 130 interrupted by signal
// (the shell convention for SIGINT).
const (
	exitOK          = 0
	exitFailure     = 1
	exitUsage       = 2
	exitInterrupted = 130
)

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jouppisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list available experiments and exit")
		runID      = fs.String("run", "", "experiment id to run, or 'all'")
		scale      = fs.Float64("scale", 0.25, "workload scale (1.0 ≈ 1–4M instructions per benchmark)")
		timings    = fs.Bool("time", false, "print per-experiment wall time")
		asJSON     = fs.Bool("json", false, "emit structured JSON instead of rendered text")
		timeout    = fs.Duration("timeout", 0, "per-experiment deadline, e.g. 90s (0 = none)")
		checkpoint = fs.String("checkpoint", "", "flush completed results to this JSON file after every experiment")
		resume     = fs.Bool("resume", false, "skip experiments already completed in the -checkpoint file")
		retries    = fs.Int("retries", 0, "re-run a failed experiment up to this many extra times")
		metrics    = fs.String("metrics-addr", "", "serve /metrics, /vars and /debug/pprof on this address (e.g. localhost:9090) for the duration of the run")
		journalTo  = fs.String("journal", "", "append one JSON line per run event (experiment start/finish/panic/retry, checkpoint saves) to this file")
		progress   = fs.Bool("progress", false, "render a live progress line (experiments done, accesses/sec, ETA) on stderr")
		replay     = fs.String("replay", "", "replay one benchmark through a single system (see -system) instead of running experiments")
		system     = fs.String("system", "sys=baseline", "system for -replay: a comma-separated key=value configuration spec, e.g. sys=improved, victim=4, ways=4,depth=8")
		phase      = fs.Int("phase", 0, "with -replay: render a phase plot, miss rate per window of this many per-side accesses (0 = off)")
		heatmap    = fs.Bool("heatmap", false, "with -replay: render per-set miss/eviction heatmaps and the hottest-set table for both L1 sides")
		missDump   = fs.String("missdump", "", "with -replay: write every L1 miss event as JSONL to this file")
		showVer    = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *showVer {
		fmt.Fprintln(stdout, version.String("jouppisim"))
		return exitOK
	}

	if *replay != "" {
		if *runID != "" {
			fmt.Fprintln(stderr, "jouppisim: -replay and -run are mutually exclusive")
			return exitUsage
		}
		if !(*scale > 0) || math.IsInf(*scale, 0) {
			fmt.Fprintf(stderr, "jouppisim: -scale must be a positive finite number, got %v\n", *scale)
			return exitUsage
		}
		return runReplay(ctx, stdout, stderr, *replay, *system, *scale, *phase, *heatmap, *missDump)
	}
	if *phase != 0 || *heatmap || *missDump != "" {
		fmt.Fprintln(stderr, "jouppisim: -phase/-heatmap/-missdump require -replay")
		return exitUsage
	}

	if *list || *runID == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-22s %s\n", e.ID, e.Title)
		}
		if *runID == "" && !*list {
			fmt.Fprintln(stdout, "\nrun one with: jouppisim -run <id>   (or -run all)")
		}
		return exitOK
	}

	if !(*scale > 0) || math.IsInf(*scale, 0) {
		fmt.Fprintf(stderr, "jouppisim: -scale must be a positive finite number, got %v\n", *scale)
		return exitUsage
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(stderr, "jouppisim: -resume requires -checkpoint")
		return exitUsage
	}
	if *timeout < 0 {
		fmt.Fprintln(stderr, "jouppisim: -timeout must not be negative")
		return exitUsage
	}
	if *retries < 0 {
		fmt.Fprintln(stderr, "jouppisim: -retries must not be negative")
		return exitUsage
	}

	// Observability plumbing. The registry backs both the /metrics
	// endpoint and the progress line, so either flag creates it.
	var reg *telemetry.Registry
	if *metrics != "" || *progress {
		reg = telemetry.NewRegistry()
	}
	if *metrics != "" {
		srv, err := telemetry.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintln(stderr, "jouppisim:", err)
			return exitFailure
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "jouppisim: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", srv.Addr())
	}
	var journal *telemetry.Journal
	if *journalTo != "" {
		f, err := os.OpenFile(*journalTo, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "jouppisim:", err)
			return exitFailure
		}
		defer f.Close()
		journal = telemetry.NewJournal(f)
		defer func() {
			if err := journal.Err(); err != nil {
				fmt.Fprintln(stderr, "jouppisim: journal:", err)
			}
		}()
	}

	cfg := experiments.Config{Scale: *scale, Traces: experiments.NewTraceSet(*scale)}

	var toRun []experiments.Experiment
	if *runID == "all" {
		toRun = experiments.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "jouppisim: unknown experiment %q; try -list\n", id)
				return exitUsage
			}
			toRun = append(toRun, e)
		}
	}

	// The checkpoint accumulates completed results and is flushed after
	// every experiment, so a SIGINT (or crash) loses at most the
	// experiment that was in flight.
	var ckpt *experiments.Checkpoint
	if *checkpoint != "" {
		if *resume {
			var err error
			if ckpt, err = experiments.LoadCheckpoint(*checkpoint, *scale); err != nil {
				if !errors.Is(err, os.ErrNotExist) {
					fmt.Fprintln(stderr, "jouppisim:", err)
					return exitFailure
				}
				ckpt = experiments.NewCheckpoint(*scale) // nothing to resume from yet
			}
		} else {
			ckpt = experiments.NewCheckpoint(*scale)
		}
	}

	type jsonResult struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Scale   float64    `json:"scale"`
		Headers []string   `json:"headers,omitempty"`
		Rows    [][]string `json:"rows,omitempty"`
		Err     string     `json:"err,omitempty"`
	}
	var jsonResults []jsonResult

	if !*asJSON {
		fmt.Fprintf(stdout, "jouppisim: scale %.2f, %d CPUs\n\n", *scale, runtime.GOMAXPROCS(0))
	}

	failures := 0
	last := time.Now()
	saved := 0
	opts := experiments.RunOptions{
		Timeout:     *timeout,
		Experiments: toRun,
		Retries:     *retries,
		Telemetry:   reg,
		Journal:     journal,
		OnResult: func(res *experiments.Result, cached bool) {
			elapsed := time.Since(last)
			last = time.Now()
			if ckpt != nil && !cached {
				ckpt.Add(res)
				if err := ckpt.Save(*checkpoint); err != nil {
					fmt.Fprintln(stderr, "jouppisim:", err)
				} else {
					saved++
					journal.Emit(telemetry.Event{Event: "checkpoint-saved",
						ID: res.ID, Title: res.Title, Seq: saved, Total: len(toRun)})
				}
			}
			if res.Failed() {
				failures++
				fmt.Fprintf(stderr, "jouppisim: experiment %s failed: %s\n", res.ID, res.Err)
				if res.Stack != "" {
					fmt.Fprintln(stderr, res.Stack)
				}
			}
			if *asJSON {
				jsonResults = append(jsonResults, jsonResult{
					ID: res.ID, Title: res.Title, Scale: *scale,
					Headers: res.Headers, Rows: res.Rows, Err: res.Err,
				})
				return
			}
			if !res.Failed() {
				fmt.Fprintf(stdout, "===== %s =====\n%s\n", res.Title, res.Text)
			}
			if *timings {
				fmt.Fprintf(stdout, "[%s took %v]\n\n", res.ID, elapsed.Round(time.Millisecond))
			}
		},
	}
	if ckpt != nil && *resume {
		opts.Cached = ckpt.Lookup
	}

	var prog *telemetry.Progress
	if *progress {
		// The counter and gauges here are the same instances RunAll
		// registers (the registry is idempotent by name), so the line
		// tracks the run with no extra plumbing.
		prog = telemetry.NewProgress(stderr,
			reg.Counter("sim_replay_accesses_total", "trace references simulated across all experiments, once per structure fed"),
			reg.Gauge("experiments_done", "experiments finished so far this run"),
			reg.Gauge("experiments_total", "experiments in this run"))
		prog.Start(200 * time.Millisecond)
		defer prog.Stop()
	}

	_, runErr := experiments.RunAll(ctx, cfg, opts)
	if prog != nil {
		prog.Stop()
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResults); err != nil {
			fmt.Fprintln(stderr, "jouppisim:", err)
			return exitFailure
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "jouppisim: interrupted: %v", runErr)
		if ckpt != nil {
			fmt.Fprintf(stderr, " (completed results saved to %s; rerun with -resume)", *checkpoint)
		}
		fmt.Fprintln(stderr)
		return exitInterrupted
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "jouppisim: %d of %d experiments failed\n", failures, len(toRun))
		return exitFailure
	}
	return exitOK
}
