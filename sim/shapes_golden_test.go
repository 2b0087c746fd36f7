package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"jouppi/internal/hierarchy"
)

// The shape golden pins the full hierarchy.Results of every augmentation
// shape the library builds — per-side core.Stats including the §5 overlap
// count, prefetch issue and stall cycles, the L2 traffic split with its
// victim and stream hits, main-memory traffic and the performance
// breakdown — on two benchmarks at a small scale. The figure golden suite
// covers only the data-side miss, victim and stream shapes; this one adds
// the instruction side, the §5 improved system and the second-level
// extensions. Configurations are spelled in the configuration grammar or
// as Config literals, so the snapshot outlives any rework of how a shape
// is assembled underneath. Regenerate deliberately with
//
//	go test ./sim -run TestShapeGolden -update-shapes
var updateShapes = flag.Bool("update-shapes", false, "rewrite testdata/shapes.json")

const shapeScale = 0.1

var shapeBenchmarks = []string{"ccom", "met"}

// shapeConfigs lists every augmentation shape: grammar specs first, then
// the L2 stream-buffer extension, which the grammar has no key for.
func shapeConfigs(t *testing.T) []LabeledConfig {
	t.Helper()
	specs := []string{
		"", "misscache=4", "victim=1", "victim=4", "ivictim=4",
		"ways=1", "ways=4", "ways=4,quasi=true", "ways=4,stride=true",
		"sys=improved", "victim=4,ways=4", "l2victim=4",
	}
	var out []LabeledConfig
	for _, spec := range specs {
		cfg, err := ParseConfig(spec, BaselineSystem())
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		out = append(out, LabeledConfig{Label: spec, Config: cfg})
	}
	out = append(out,
		LabeledConfig{Label: "l2stream=4x4", Config: Config{
			L2Stream: &StreamOptions{Ways: 4, Depth: 4}}},
		LabeledConfig{Label: "l2stream=4x4,l2victim=4", Config: Config{
			L2VictimEntries: 4, L2Stream: &StreamOptions{Ways: 4, Depth: 4}}},
	)
	return out
}

// shapeSnapshot is one configuration's pinned numbers. The float fields
// are derived from Results; JSON writes each float64 in its shortest
// round-tripping form, so equal encodings mean equal bits.
type shapeSnapshot struct {
	Results            hierarchy.Results `json:"results"`
	IMissRate          float64           `json:"i_miss_rate"`
	DMissRate          float64           `json:"d_miss_rate"`
	PercentOfPotential float64           `json:"percent_of_potential"`
}

func runShapes(t *testing.T) map[string]shapeSnapshot {
	t.Helper()
	cfgs := shapeConfigs(t)
	out := map[string]shapeSnapshot{}
	for _, bench := range shapeBenchmarks {
		src, err := Benchmark(bench, shapeScale)
		if err != nil {
			t.Fatal(err)
		}
		systems := make([]*System, len(cfgs))
		for i, lc := range cfgs {
			if systems[i], err = NewSystem(lc.Config); err != nil {
				t.Fatalf("%s: %v", lc.Label, err)
			}
		}
		if err := Replay(context.Background(), src, systems...); err != nil {
			t.Fatal(err)
		}
		for i, lc := range cfgs {
			r := systems[i].sys.Results(systems[i].instructions)
			out[bench+"/"+lc.Label] = shapeSnapshot{
				Results:            r,
				IMissRate:          r.IMissRate(),
				DMissRate:          r.DMissRate(),
				PercentOfPotential: r.Breakdown.PercentOfPotential(),
			}
		}
	}
	return out
}

func TestShapeGolden(t *testing.T) {
	got := runShapes(t)
	path := filepath.Join("testdata", "shapes.json")
	if *updateShapes {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-shapes to generate)", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("snapshot has %d shapes, run produced %d", len(want), len(got))
	}
	for key, snap := range got {
		raw, ok := want[key]
		if !ok {
			t.Errorf("%s: not in the snapshot", key)
			continue
		}
		gotJSON, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), gotJSON) {
			t.Errorf("%s drifted from the snapshot:\n got  %s\n want %s", key, gotJSON, compact.Bytes())
		}
	}
}
