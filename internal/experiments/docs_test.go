package experiments

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/memtrace"
)

// repoFile reads a file from the repository root (two levels up from this
// package).
func repoFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return string(data)
}

// Every registered experiment must be documented in DESIGN.md's
// per-experiment index and runnable from the documented CLI, and every
// experiments/ or core/ path the index names must exist.
func TestDesignIndexesEveryExperiment(t *testing.T) {
	design := repoFile(t, "DESIGN.md")
	for _, e := range All() {
		if !strings.Contains(design, "`"+e.ID+"`") {
			t.Errorf("DESIGN.md does not index experiment %q", e.ID)
		}
	}
	start := strings.Index(design, "## 3. Per-experiment index")
	end := strings.Index(design, "## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 per-experiment index")
	}
	paths := regexp.MustCompile("`((?:experiments|core)/[^`]*)`").FindAllStringSubmatch(design[start:end], -1)
	if len(paths) == 0 {
		t.Fatal("DESIGN.md §3 names no experiments/ or core/ paths")
	}
	for _, m := range paths {
		// This package is internal/experiments; the paths are under internal/.
		if _, err := os.Stat(filepath.Join("..", m[1])); err != nil {
			t.Errorf("DESIGN.md §3 names %s, which does not exist", m[1])
		}
	}
}

// EXPERIMENTS.md must reference every paper exhibit's runner.
func TestExperimentsDocCoversPaperExhibits(t *testing.T) {
	doc := repoFile(t, "EXPERIMENTS.md")
	paperIDs := []string{"table1-1", "table2-1", "table2-2", "fig2-2", "fig3-1",
		"fig3-3", "fig3-5", "fig3-6", "fig3-7", "fig4-1", "fig4-3", "fig4-5",
		"fig4-6", "fig4-7", "fig5-1", "overlap"}
	for _, id := range paperIDs {
		if !strings.Contains(doc, id) {
			t.Errorf("EXPERIMENTS.md does not cover %q", id)
		}
	}
}

// The claim EXPERIMENTS.md makes about scale stability: baseline miss
// rates move only slightly between scales. This pins the property the
// recorded results rely on.
func TestMissRatesStableAcrossScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-stability check skipped in -short mode")
	}
	rates := func(scale float64) map[string][2]float64 {
		ts := NewTraceSet(scale)
		out := make(map[string][2]float64)
		for _, name := range benchNames() {
			tr := ts.Get(name)
			l1i := cache.MustNew(l1Config(4096, 16))
			l1d := cache.MustNew(l1Config(4096, 16))
			tr.Each(func(a memtrace.Access) {
				if a.Kind == memtrace.Ifetch {
					l1i.Access(uint64(a.Addr), false)
				} else {
					l1d.Access(uint64(a.Addr), a.Kind == memtrace.Store)
				}
			})
			out[name] = [2]float64{l1i.Stats().MissRate(), l1d.Stats().MissRate()}
		}
		return out
	}
	small, big := rates(0.1), rates(0.4)
	for _, name := range benchNames() {
		for side := 0; side < 2; side++ {
			a, b := small[name][side], big[name][side]
			// Absolute drift bound: a percentage point or so.
			if math.Abs(a-b) > 0.02 {
				t.Errorf("%s side %d: miss rate drifts %.4f → %.4f between scales",
					name, side, a, b)
			}
		}
	}
}
