package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"jouppi/internal/backoff"
	"jouppi/internal/fanout"
	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
)

// RunOptions controls a resilient suite run.
type RunOptions struct {
	// Timeout bounds each experiment's wall time (0 = unbounded). An
	// experiment that overruns is cut off cooperatively and reported as a
	// failed Result carrying the deadline error.
	Timeout time.Duration
	// Cached, when non-nil, supplies a previously-completed result by ID
	// (e.g. from a checkpoint). A non-nil return is used verbatim instead
	// of re-running the experiment, which is how an interrupted sweep
	// resumes without repeating finished work.
	Cached func(id string) *Result
	// OnResult, when non-nil, observes every result — cached or fresh —
	// in suite order as it completes. It is the hook for incremental
	// checkpointing and streamed rendering; cached reports whether the
	// result was supplied by Cached rather than computed.
	OnResult func(r *Result, cached bool)
	// Experiments is the set to run, in order; nil means All().
	Experiments []Experiment

	// Retries re-runs an experiment that failed (panic, timeout) up to
	// this many extra times before its failure is accepted. Cancellation
	// of the run's context is never retried — the whole sweep is ending.
	Retries int
	// Backoff, when non-nil, paces retries: before re-attempt n the
	// runner sleeps Backoff.Delay(n), cut short immediately if the run's
	// context is cancelled during the wait. Nil retries immediately
	// (the historical behaviour). The same policy type paces the
	// cachesimd job queue, so a daemon and a CLI sweep retry alike.
	Backoff *backoff.Policy
	// Retryable, when non-nil, classifies a failure: a failed Result for
	// which it returns false is accepted immediately, with no retry. Nil
	// treats every failure as retryable. This is how a caller marks
	// permanent failures — a corrupt input that will fail identically on
	// every attempt should not burn the retry budget.
	Retryable func(r *Result) bool

	// Telemetry, when non-nil, receives the suite's live counters (the
	// experiments_* set and sim_replay_accesses_total) so a /metrics
	// scrape or progress display can watch a run in flight.
	Telemetry *telemetry.Registry
	// Journal, when non-nil, receives one structured event per lifecycle
	// transition (run-start, experiment-start/finish/panic/retry,
	// run-finish), forming a machine-readable record of the run.
	Journal *telemetry.Journal
}

// suiteTel is the counter set RunAll registers when Telemetry is set.
type suiteTel struct {
	completed      *telemetry.Counter
	failed         *telemetry.Counter
	panics         *telemetry.Counter
	retries        *telemetry.Counter
	checkpointHits *telemetry.Counter
	done           *telemetry.Gauge
	total          *telemetry.Gauge
	queueDepth     *telemetry.Gauge
	duration       *telemetry.Histogram
}

func newSuiteTel(reg *telemetry.Registry) *suiteTel {
	if reg == nil {
		return nil
	}
	return &suiteTel{
		completed:      reg.Counter("experiments_completed_total", "experiments that produced a usable result"),
		failed:         reg.Counter("experiments_failed_total", "experiments whose final outcome was a failure"),
		panics:         reg.Counter("experiments_panics_total", "experiment runs that ended in a recovered panic"),
		retries:        reg.Counter("experiments_retries_total", "failed experiment runs that were re-attempted"),
		checkpointHits: reg.Counter("experiments_checkpoint_hits_total", "experiments satisfied from the checkpoint cache"),
		done:           reg.Gauge("experiments_done", "experiments finished so far this run"),
		total:          reg.Gauge("experiments_total", "experiments in this run"),
		queueDepth:     reg.Gauge("experiments_queue_depth", "experiments not yet started"),
		duration: reg.Histogram("experiments_duration_seconds",
			"wall time of each fresh experiment run", telemetry.DefaultDurationBuckets()),
	}
}

// RunAll runs a suite of experiments with the resilience a long sweep
// needs: each experiment is isolated (a panic yields a failed Result and
// the suite keeps going), optionally deadline-bounded and retried, and
// the whole sweep is cancellable through ctx — cancellation returns the
// partial results gathered so far together with ctx's error. With
// opts.Telemetry and opts.Journal it additionally streams live counters
// and a structured event log.
func RunAll(ctx context.Context, cfg Config, opts RunOptions) ([]*Result, error) {
	cfg = cfg.withDefaults()
	exps := opts.Experiments
	if exps == nil {
		exps = All()
	}
	tel := newSuiteTel(opts.Telemetry)
	if tel != nil {
		tel.total.Set(int64(len(exps)))
		tel.queueDepth.Set(int64(len(exps)))
		if cfg.Accesses == nil {
			cfg.Accesses = opts.Telemetry.Counter("sim_replay_accesses_total",
				"trace references simulated across all experiments, once per structure fed")
		}
	}
	jnl := opts.Journal
	jnl.Emit(telemetry.Event{Event: "run-start", Total: len(exps)})

	var out []*Result
	for seq, e := range exps {
		if err := ctx.Err(); err != nil {
			jnl.Emit(telemetry.Event{Event: "run-finish", Seq: len(out), Total: len(exps), Err: err.Error()})
			return out, err
		}
		if tel != nil {
			tel.queueDepth.Set(int64(len(exps) - seq))
		}
		res, cached := runOne(ctx, e, cfg, opts, tel, seq, len(exps))
		out = append(out, res)
		if tel != nil {
			tel.done.Set(int64(len(out)))
			if res.Failed() {
				tel.failed.Inc()
			} else {
				tel.completed.Inc()
			}
			if cached {
				tel.checkpointHits.Inc()
			}
		}
		if opts.OnResult != nil {
			opts.OnResult(res, cached)
		}
	}
	if tel != nil {
		tel.queueDepth.Set(0)
	}
	err := ctx.Err()
	fin := telemetry.Event{Event: "run-finish", Seq: len(out), Total: len(exps)}
	if err != nil {
		fin.Err = err.Error()
	}
	jnl.Emit(fin)
	return out, err
}

// runOne resolves a single experiment: checkpoint lookup, fresh run, and
// retries, emitting journal events and duration/panic telemetry.
func runOne(ctx context.Context, e Experiment, cfg Config, opts RunOptions,
	tel *suiteTel, seq, total int) (*Result, bool) {
	if opts.Cached != nil {
		if r := opts.Cached(e.ID); r != nil {
			opts.Journal.Emit(telemetry.Event{Event: "experiment-finish",
				ID: e.ID, Title: e.Title, Seq: seq, Total: total, Cached: true, Err: r.Err})
			return r, true
		}
	}
	var res *Result
	for attempt := 0; ; attempt++ {
		opts.Journal.Emit(telemetry.Event{Event: "experiment-start",
			ID: e.ID, Title: e.Title, Seq: seq, Total: total})
		// Each attempt is one span: its extent covers the shielded run
		// (including a timeout overrun being cut off), so per-attempt SLO
		// series separate run time from queueing and backoff. Detached
		// contexts make Start a no-op returning ctx unchanged.
		actx, asp := trace.Start(ctx, "attempt",
			trace.String("experiment", e.ID), trace.Int("attempt", attempt+1))
		start := time.Now()
		res = runShielded(actx, e, cfg, opts.Timeout)
		elapsed := time.Since(start)
		if res.Err != "" {
			asp.SetAttr("err", res.Err)
		}
		asp.End()
		if tel != nil {
			tel.duration.Observe(elapsed.Seconds())
			if res.Stack != "" {
				tel.panics.Inc()
			}
		}
		if res.Stack != "" {
			opts.Journal.Emit(telemetry.Event{Event: "experiment-panic",
				ID: e.ID, Title: e.Title, Seq: seq, Total: total, Err: res.Err})
		}
		opts.Journal.Emit(telemetry.Event{Event: "experiment-finish",
			ID: e.ID, Title: e.Title, Seq: seq, Total: total,
			ElapsedS: elapsed.Seconds(), Err: res.Err})
		if !res.Failed() || attempt >= opts.Retries || ctx.Err() != nil {
			return res, false
		}
		if opts.Retryable != nil && !opts.Retryable(res) {
			return res, false
		}
		if tel != nil {
			tel.retries.Inc()
		}
		opts.Journal.Emit(telemetry.Event{Event: "experiment-retry",
			ID: e.ID, Title: e.Title, Seq: seq, Total: total, Err: res.Err})
		if opts.Backoff != nil {
			// Pace the re-attempt; a cancellation during the wait ends
			// the retry loop immediately with the last failure. The sleep
			// is its own span so an SLO breach can distinguish "slow
			// because retrying" from "slow because running".
			_, bsp := trace.Start(ctx, "backoff", trace.Int("attempt", attempt+1))
			err := opts.Backoff.Sleep(ctx, attempt)
			bsp.End()
			if err != nil {
				return res, false
			}
		}
	}
}

// runShielded runs one experiment, converting panics, cancellation, and
// deadline overruns into a failed Result instead of letting them kill
// the suite.
func runShielded(ctx context.Context, e Experiment, cfg Config, timeout time.Duration) (res *Result) {
	runCtx := ctx
	cancel := func() {}
	if timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			res = failedResult(e, r)
			return
		}
		// An experiment cut short by cancellation returns whatever
		// partial numbers its interrupted sweeps produced; discard them
		// — a wrong-looking table is worse than a missing one.
		if err := runCtx.Err(); err != nil {
			res = &Result{ID: e.ID, Title: e.Title, Err: err.Error()}
		}
	}()
	res = e.Run(cfg.WithContext(runCtx))
	if res == nil {
		res = &Result{ID: e.ID, Title: e.Title, Err: "experiment returned no result"}
	}
	return res
}

// failedResult converts a recovered panic into a Result. A run's panic
// arrives as the *fanout.ConsumerPanic replay raised, carrying the run
// goroutine's own stack, and another panic of a plan worker as a
// *passPanic carrying the worker's; for direct panics the stack is
// captured here, still inside the recovering frame.
func failedResult(e Experiment, r any) *Result {
	switch p := r.(type) {
	case *fanout.ConsumerPanic:
		return &Result{ID: e.ID, Title: e.Title,
			Err: fmt.Sprintf("panic: %v", p), Stack: string(p.Stack)}
	case *passPanic:
		return &Result{ID: e.ID, Title: e.Title,
			Err: fmt.Sprintf("panic: %v", p.val), Stack: string(p.stack)}
	}
	return &Result{ID: e.ID, Title: e.Title,
		Err: fmt.Sprintf("panic: %v", r), Stack: string(debug.Stack())}
}
