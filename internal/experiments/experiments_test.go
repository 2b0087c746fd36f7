package experiments

import (
	"strings"
	"testing"
)

// smallCfg shares one trace set across the test binary.
var smallTraces = NewTraceSet(0.1)

func smallCfg() Config { return Config{Scale: 0.1, Traces: smallTraces} }

// exhibit looks an experiment up by ID, failing the test if there is none.
func exhibit(t testing.TB, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return e
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 20 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("fig3-5"); !ok {
		t.Error("ByID(fig3-5) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

// TestAllExperimentsRun executes every experiment at a small scale and
// sanity-checks the outputs. This is the integration test for the whole
// harness.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(smallCfg())
			if res == nil {
				t.Fatal("nil result")
			}
			if res.ID != e.ID {
				t.Errorf("result ID %q != experiment ID %q", res.ID, e.ID)
			}
			if len(res.Text) == 0 {
				t.Error("empty text output")
			}
			if len(res.Rows) == 0 {
				t.Error("no structured rows")
			}
			if strings.Contains(res.Text, "NaN") {
				t.Error("output contains NaN")
			}
		})
	}
}

func TestTraceSetCachesTraces(t *testing.T) {
	ts := NewTraceSet(0.02)
	a := ts.Get("met")
	b := ts.Get("met")
	if a != b {
		t.Error("TraceSet regenerated a cached trace")
	}
	if ts.Scale() != 0.02 {
		t.Errorf("Scale = %v", ts.Scale())
	}
}

func TestTable11IsStatic(t *testing.T) {
	res := exhibit(t, "table1-1").Run(Config{})
	if len(res.Rows) != 3 {
		t.Fatalf("Table 1-1 has %d rows, want 3", len(res.Rows))
	}
	// Derived columns must match the paper's: Titan = 12 cycles, 8.6
	// instruction times.
	titan := res.Rows[1]
	if titan[4] != "12" {
		t.Errorf("Titan miss cycles = %s, want 12", titan[4])
	}
	if titan[5] != "8.6" {
		t.Errorf("Titan miss instr = %s, want 8.6", titan[5])
	}
	future := res.Rows[2]
	if future[4] != "70" || future[5] != "140.0" {
		t.Errorf("projected machine = %v", future)
	}
}

func TestMeanOver(t *testing.T) {
	vals := []float64{10, 20, 30}
	if got := meanOver(vals, []bool{true, false, true}); got != 20 {
		t.Errorf("meanOver = %v, want 20", got)
	}
	if got := meanOver(vals, []bool{false, false, false}); got != 0 {
		t.Errorf("all-excluded meanOver = %v, want 0", got)
	}
}
