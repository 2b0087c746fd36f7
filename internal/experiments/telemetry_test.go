package experiments

import (
	"bytes"
	"context"
	"testing"

	"jouppi/internal/telemetry"
)

// TestRunAllTelemetry drives a small suite — one success, one panic that
// succeeds on retry, one cached — and checks the counters, the duration
// histogram, and the journal event stream.
func TestRunAllTelemetry(t *testing.T) {
	attempts := 0
	exps := []Experiment{
		okExperiment("a"),
		{ID: "flaky", Title: "flaky", Run: func(cfg Config) *Result {
			attempts++
			if attempts == 1 {
				panic("first attempt blows up")
			}
			return &Result{ID: "flaky", Title: "flaky", Text: "recovered\n"}
		}},
		okExperiment("cached"),
	}
	reg := telemetry.NewRegistry()
	var buf bytes.Buffer
	out, err := RunAll(context.Background(), Config{}, RunOptions{
		Experiments: exps,
		Retries:     1,
		Telemetry:   reg,
		Journal:     telemetry.NewJournal(&buf),
		Cached: func(id string) *Result {
			if id == "cached" {
				return &Result{ID: id, Title: "exp " + id, Text: "from checkpoint\n"}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	for _, r := range out {
		if r.Failed() {
			t.Errorf("experiment %s failed: %v", r.ID, r.Err)
		}
	}

	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"experiments_completed_total":        3,
		"experiments_failed_total":           0,
		"experiments_panics_total":           1,
		"experiments_retries_total":          1,
		"experiments_checkpoint_hits_total":  1,
		"experiments_done":                   3,
		"experiments_total":                  3,
		"experiments_queue_depth":            0,
		"experiments_duration_seconds_count": 3, // two flaky attempts + one ok run
		"sim_replay_accesses_total":          0, // these toy experiments replay nothing
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	events, rerr := telemetry.ReadEvents(&buf)
	if rerr != nil {
		t.Fatalf("ReadEvents: %v", rerr)
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Event)
	}
	want := []string{
		"run-start",
		"experiment-start", "experiment-finish", // a
		"experiment-start", "experiment-panic", "experiment-finish", "experiment-retry", // flaky #1
		"experiment-start", "experiment-finish", // flaky #2
		"experiment-finish", // cached
		"run-finish",
	}
	if len(kinds) != len(want) {
		t.Fatalf("journal has %d events %v, want %d %v", len(kinds), kinds, len(want), want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("journal event %d = %q, want %q (full stream %v)", i, kinds[i], want[i], kinds)
		}
	}
	// Spot-check payloads: the cached finish is flagged, the run-finish
	// carries the final count.
	for _, e := range events {
		if e.Event == "experiment-finish" && e.ID == "cached" && !e.Cached {
			t.Error("cached experiment-finish not flagged Cached")
		}
		if e.Event == "run-finish" && (e.Seq != 3 || e.Total != 3 || e.Err != "") {
			t.Errorf("run-finish = %+v, want Seq=3 Total=3 no error", e)
		}
		if e.Time.IsZero() {
			t.Errorf("event %s has zero timestamp", e.Event)
		}
	}
}

// TestRunAllRetriesExhausted confirms a persistently-failing experiment
// uses exactly Retries extra attempts and still reports failure.
func TestRunAllRetriesExhausted(t *testing.T) {
	attempts := 0
	exps := []Experiment{{ID: "dead", Title: "dead", Run: func(cfg Config) *Result {
		attempts++
		panic("always fails")
	}}}
	reg := telemetry.NewRegistry()
	out, err := RunAll(context.Background(), Config{}, RunOptions{
		Experiments: exps, Retries: 2, Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if attempts != 3 {
		t.Errorf("ran %d attempts, want 3 (1 + 2 retries)", attempts)
	}
	if !out[0].Failed() {
		t.Error("exhausted experiment reported success")
	}
	snap := reg.Snapshot()
	if got := snap["experiments_retries_total"]; got != 2 {
		t.Errorf("experiments_retries_total = %v, want 2", got)
	}
	if got := snap["experiments_failed_total"]; got != 1 {
		t.Errorf("experiments_failed_total = %v, want 1", got)
	}
	if got := snap["experiments_panics_total"]; got != 3 {
		t.Errorf("experiments_panics_total = %v, want 3", got)
	}
}

// TestRunAllAccessCounter checks a real (tiny) experiment feeds the
// replay-access counter RunAll wires from the registry.
func TestRunAllAccessCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, err := RunAll(context.Background(), Config{Scale: 0.01}, RunOptions{
		Experiments: []Experiment{exhibit(t, "fig3-1")},
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got := reg.Snapshot()["sim_replay_accesses_total"]; got <= 0 {
		t.Errorf("sim_replay_accesses_total = %v, want > 0", got)
	}
}
