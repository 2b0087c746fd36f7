package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func okExperiment(id string) Experiment {
	return Experiment{ID: id, Title: "exp " + id, Run: func(cfg Config) *Result {
		return &Result{ID: id, Title: "exp " + id, Text: id + " ok\n"}
	}}
}

// A panicking experiment must become a failed Result, not kill the suite.
func TestRunAllIsolatesPanics(t *testing.T) {
	exps := []Experiment{
		okExperiment("a"),
		{ID: "boom", Title: "boom", Run: func(cfg Config) *Result {
			panic("exhibit blew up")
		}},
		okExperiment("b"),
	}
	out, err := RunAll(context.Background(), Config{}, RunOptions{Experiments: exps})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3 (suite must continue past the panic)", len(out))
	}
	if out[0].Failed() || out[2].Failed() {
		t.Errorf("healthy experiments failed: %v / %v", out[0].Err, out[2].Err)
	}
	bad := out[1]
	if !bad.Failed() {
		t.Fatal("panicking experiment did not produce a failed Result")
	}
	if !strings.Contains(bad.Err, "exhibit blew up") {
		t.Errorf("Err = %q, want the panic value", bad.Err)
	}
	if bad.Stack == "" {
		t.Error("failed Result has no stack trace")
	}
}

// Cancelling mid-suite returns the partial results plus the ctx error.
func TestRunAllCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	exps := []Experiment{okExperiment("a"), okExperiment("b"), okExperiment("never")}
	ran := 0
	out, err := RunAll(ctx, Config{}, RunOptions{
		Experiments: exps,
		OnResult: func(r *Result, cached bool) {
			ran++
			if ran == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 2 || out[0].ID != "a" || out[1].ID != "b" {
		t.Fatalf("partial results = %+v, want exactly a and b", out)
	}
}

// An experiment that overruns its per-experiment deadline is reported as
// failed; its partial numbers are discarded.
func TestRunAllPerExperimentTimeout(t *testing.T) {
	exps := []Experiment{
		{ID: "slow", Title: "slow", Run: func(cfg Config) *Result {
			ctx := cfg.Context()
			for ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			// Cooperative exit: return partial numbers anyway; RunAll must
			// not trust them.
			return &Result{ID: "slow", Title: "slow", Text: "partial numbers\n"}
		}},
		okExperiment("after"),
	}
	out, err := RunAll(context.Background(), Config{},
		RunOptions{Experiments: exps, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results, want 2", len(out))
	}
	slow := out[0]
	if !slow.Failed() {
		t.Fatal("timed-out experiment not reported as failed")
	}
	if !strings.Contains(slow.Err, context.DeadlineExceeded.Error()) {
		t.Errorf("Err = %q, want a deadline error", slow.Err)
	}
	if slow.Text != "" {
		t.Errorf("timed-out experiment kept partial text %q", slow.Text)
	}
	if out[1].Failed() {
		t.Errorf("experiment after the timeout failed: %v", out[1].Err)
	}
}

// Cached results are used verbatim and the experiment is not re-run.
func TestRunAllUsesCachedResults(t *testing.T) {
	reran := false
	exps := []Experiment{
		{ID: "done", Title: "done", Run: func(cfg Config) *Result {
			reran = true
			return &Result{ID: "done", Title: "done", Text: "recomputed\n"}
		}},
		okExperiment("fresh"),
	}
	saved := &Result{ID: "done", Title: "done", Text: "from checkpoint\n"}
	var sawCached, sawFresh bool
	out, err := RunAll(context.Background(), Config{}, RunOptions{
		Experiments: exps,
		Cached: func(id string) *Result {
			if id == "done" {
				return saved
			}
			return nil
		},
		OnResult: func(r *Result, cached bool) {
			if r.ID == "done" && cached {
				sawCached = true
			}
			if r.ID == "fresh" && !cached {
				sawFresh = true
			}
		},
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if reran {
		t.Error("cached experiment was re-run")
	}
	if out[0] != saved {
		t.Error("cached result not used verbatim")
	}
	if !sawCached || !sawFresh {
		t.Errorf("OnResult cached flags wrong: cached=%v fresh=%v", sawCached, sawFresh)
	}
}

// A Run that returns nil becomes a failed Result rather than a nil in
// the slice for downstream rendering to trip over.
func TestRunAllNilResult(t *testing.T) {
	exps := []Experiment{{ID: "nil", Title: "nil", Run: func(cfg Config) *Result { return nil }}}
	out, err := RunAll(context.Background(), Config{}, RunOptions{Experiments: exps})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(out) != 1 || out[0] == nil || !out[0].Failed() {
		t.Fatalf("results = %+v, want one failed result", out)
	}
}
