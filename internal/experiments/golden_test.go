package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"jouppi/internal/textplot"
)

// The golden suite pins the reproduced paper numbers bit-for-bit: every
// exhibit's full-precision Series and its rendered table (Headers, Rows)
// are snapshotted to testdata/golden/ at a fixed small scale, and any
// change that shifts a summary number by even one ULP, or one printed
// cell, fails tier-1. Regenerate deliberately with
//
//	go test ./internal/experiments -run TestGoldenFigures -update
var updateGolden = flag.Bool("update", false, "rewrite golden figure snapshots in testdata/golden")

// goldenScale is deliberately independent of smallCfg's scale so the
// snapshots stay valid even if the rest of the suite retunes its traces.
const goldenScale = 0.05

var goldenTraces = NewTraceSet(goldenScale)

// goldenIDs lists every exhibit pinned by the suite: all of All(). The
// first entry must carry a Series (TestGoldenDetectsULPPerturbation
// perturbs it).
var goldenIDs = []string{"fig2-2", "fig3-1", "fig3-3", "fig4-1", "fig4-3", "fig4-6",
	"table1-1", "table2-1", "table2-2", "fig3-5", "fig3-6", "fig3-7", "fig4-5",
	"fig4-7", "fig5-1", "overlap", "ablation-quasi", "ablation-stride",
	"ablation-l2victim", "ablation-misscmp", "ablation-replacement",
	"ablation-assoc", "ablation-prefetchcmp", "ablation-depth",
	"ablation-writepolicy", "ablation-multiprog", "ablation-inclusion",
	"ablation-latency", "ablation-l2stream", "ablation-bandwidth",
	"ablation-writebuffer", "introspect-phase"}

// goldenFigure is the on-disk snapshot. JSON round-trips float64 exactly
// (shortest representation that parses back to the same bits), so exact
// equality below really is bit equality.
type goldenFigure struct {
	ID      string            `json:"id"`
	Scale   float64           `json:"scale"`
	Series  []textplot.Series `json:"series,omitempty"`
	Headers []string          `json:"headers,omitempty"`
	Rows    [][]string        `json:"rows,omitempty"`
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// runGoldenFigures replays the golden figures through RunAll — the same
// entry point production sweeps use — and returns one snapshot per ID.
func runGoldenFigures(t *testing.T) map[string]goldenFigure {
	t.Helper()
	want := map[string]bool{}
	for _, id := range goldenIDs {
		want[id] = true
	}
	var exps []Experiment
	for _, e := range All() {
		if want[e.ID] {
			exps = append(exps, e)
		}
	}
	if len(exps) != len(goldenIDs) || len(exps) != len(All()) {
		t.Fatalf("found %d of %d golden experiments in All(), which has %d",
			len(exps), len(goldenIDs), len(All()))
	}
	cfg := Config{Scale: goldenScale, Traces: goldenTraces}
	results, err := RunAll(context.Background(), cfg, RunOptions{Experiments: exps})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]goldenFigure{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("experiment %s failed: %s", r.ID, r.Err)
		}
		if len(r.Series) == 0 && len(r.Rows) == 0 {
			t.Fatalf("experiment %s has neither Series nor Rows to snapshot", r.ID)
		}
		out[r.ID] = goldenFigure{ID: r.ID, Scale: goldenScale, Series: r.Series,
			Headers: r.Headers, Rows: r.Rows}
	}
	return out
}

// diffGolden reports the first bit-level difference between two snapshots,
// or "" if they are identical. Floats are compared via Float64bits so a
// one-ULP drift (and even a NaN-payload change) is a mismatch.
func diffGolden(want, got goldenFigure) string {
	if want.ID != got.ID {
		return fmt.Sprintf("id: %q != %q", got.ID, want.ID)
	}
	if math.Float64bits(want.Scale) != math.Float64bits(got.Scale) {
		return fmt.Sprintf("scale: %v != %v", got.Scale, want.Scale)
	}
	if len(want.Series) != len(got.Series) {
		return fmt.Sprintf("series count: %d != %d", len(got.Series), len(want.Series))
	}
	for i, ws := range want.Series {
		gs := got.Series[i]
		if ws.Name != gs.Name {
			return fmt.Sprintf("series[%d] name: %q != %q", i, gs.Name, ws.Name)
		}
		if d := diffFloats(fmt.Sprintf("series[%d]=%s X", i, ws.Name), ws.X, gs.X); d != "" {
			return d
		}
		if d := diffFloats(fmt.Sprintf("series[%d]=%s Y", i, ws.Name), ws.Y, gs.Y); d != "" {
			return d
		}
	}
	if d := diffStrings("headers", want.Headers, got.Headers); d != "" {
		return d
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row count: %d != %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if d := diffStrings(fmt.Sprintf("rows[%d]", i), want.Rows[i], got.Rows[i]); d != "" {
			return d
		}
	}
	return ""
}

func diffStrings(label string, want, got []string) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("%s[%d]: %q != golden %q", label, i, got[i], want[i])
		}
	}
	return ""
}

func diffFloats(label string, want, got []float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Sprintf("%s[%d]: %v (bits %#x) != golden %v (bits %#x)",
				label, i, got[i], math.Float64bits(got[i]),
				want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}

// TestGoldenFigures is the paper-fidelity pin: every golden figure's
// summary numbers must match the committed snapshot exactly.
func TestGoldenFigures(t *testing.T) {
	got := runGoldenFigures(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range goldenIDs {
		fig, ok := got[id]
		if !ok {
			t.Errorf("%s: no result produced", id)
			continue
		}
		path := goldenPath(id)
		if *updateGolden {
			buf, err := json.MarshalIndent(fig, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s", path)
			continue
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (run with -update to generate)", id, err)
			continue
		}
		var want goldenFigure
		if err := json.Unmarshal(buf, &want); err != nil {
			t.Fatalf("%s: corrupt golden file: %v", path, err)
		}
		if d := diffGolden(want, fig); d != "" {
			t.Errorf("%s: reproduced figure drifted from golden snapshot:\n  %s\n(rerun with -update only if the change is intended)", id, d)
		}
	}
}

// TestGoldenDetectsULPPerturbation proves the comparator's sensitivity
// claim: nudging a single committed summary number by one ULP must be
// reported as a mismatch.
func TestGoldenDetectsULPPerturbation(t *testing.T) {
	buf, err := os.ReadFile(goldenPath(goldenIDs[0]))
	if err != nil {
		t.Skipf("golden files not generated yet: %v", err)
	}
	var want, perturbed goldenFigure
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &perturbed); err != nil {
		t.Fatal(err)
	}
	if d := diffGolden(want, perturbed); d != "" {
		t.Fatalf("identical snapshots reported as different: %s", d)
	}
	y := perturbed.Series[0].Y
	if len(y) == 0 {
		t.Fatal("golden snapshot has an empty series")
	}
	y[0] = math.Nextafter(y[0], math.Inf(1))
	if d := diffGolden(want, perturbed); d == "" {
		t.Errorf("one-ULP perturbation of %s Y[0] went undetected", perturbed.Series[0].Name)
	} else {
		t.Logf("perturbation detected: %s", d)
	}
}
