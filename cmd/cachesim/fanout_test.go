package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"jouppi/internal/workload"
	"jouppi/sim"
)

// writeDineroTrace writes a small benchmark trace in dinero text format
// and returns its path.
func writeDineroTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "met.din")
	tr := workload.GenerateTrace(workload.Met(), 0.02)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteDinero(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fanoutRow extracts the whitespace-separated numeric cells of the table
// row whose config label is name.
func fanoutRow(t *testing.T, out, name string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 6 && fields[0] == name {
			return fields[1:]
		}
	}
	t.Fatalf("no fan-out row for %q in output:\n%s", name, out)
	return nil
}

// singleStat pulls the words after "label:" out of the single-config
// output for cross-checking against the fan-out table.
func singleStat(t *testing.T, out, label string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, label) {
			fields := strings.Fields(strings.TrimPrefix(line, label))
			if len(fields) == 0 {
				break
			}
			return fields
		}
	}
	t.Fatalf("no %q line in output:\n%s", label, out)
	return nil
}

// TestFanoutMatchesSingleRuns is the CLI-level equivalence pin: every row
// of a -fanout replay must print exactly the numbers, all five columns,
// that the corresponding single-configuration invocation reports from
// its own decode of the same trace file. The specs are the paper's sweep
// plus four of other geometries, so the fan-out runs five groups of
// configurations that share a cache, one of them of eight.
func TestFanoutMatchesSingleRuns(t *testing.T) {
	path := writeTestTrace(t)
	list := sweepSpec + ";size=2048;line=32;victim=2,line=8;ways=4,depth=2,quasi=true"
	specs := strings.Split(list, ";")
	code, out, errOut := runCmd(t, "-trace", path, "-side", "data", "-fanout", list)
	if code != 0 {
		t.Fatalf("fanout run failed (%d): %s", code, errOut)
	}
	if want := fmt.Sprintf("%d configurations, one trace pass", len(specs)); !strings.Contains(out, want) {
		t.Errorf("missing fan-out banner %q:\n%s", want, out)
	}
	for _, spec := range specs {
		args := []string{"-trace", path, "-side", "data"}
		label := spec
		if spec == "" {
			label = "baseline"
		} else {
			for _, kv := range strings.Split(spec, ",") {
				args = append(args, "-"+kv)
			}
		}
		scode, sout, serr := runCmd(t, args...)
		if scode != 0 {
			t.Fatalf("single run %v failed (%d): %s", args, scode, serr)
		}
		auxHits := "0" // the single report omits a zero aux-hit line
		if strings.Contains(sout, "aux hits:") {
			auxHits = singleStat(t, sout, "aux hits:")[0]
		}
		full := singleStat(t, sout, "full misses:") // N (effective rate R)
		want := []string{
			singleStat(t, sout, "accesses:")[0],
			singleStat(t, sout, "L1 misses:")[0],
			auxHits,
			full[0],
			strings.TrimSuffix(full[len(full)-1], ")"),
		}
		if got := fanoutRow(t, out, label); !slices.Equal(got, want) {
			t.Errorf("%s: fan-out row %v, single run %v", label, got, want)
		}
	}
}

// TestFanoutSharesCaches pins the fan-out's allocation: the paper's
// eight-configuration sweep builds two caches, the direct-mapped one
// that seven configurations share and the 4-way one, and one group per
// cache.
func TestFanoutSharesCaches(t *testing.T) {
	geom := sim.CacheGeometry{Size: 4096, LineSize: 16, Assoc: 1}
	base := sim.Config{L1I: geom, L1D: geom, D: sim.Augmentation{Stream: &sim.StreamOptions{Depth: 4}}}
	labels, fes, groups, err := frontEnds(sweepSpec, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) != 8 || len(groups) != 2 {
		t.Fatalf("%d front ends in %d groups, want 8 in 2", len(fes), len(groups))
	}
	shared := fes[0].Cache()
	for i, fe := range fes {
		if same, dm := fe.Cache() == shared, labels[i] != "assoc=4"; same != dm {
			t.Errorf("%s: shares the direct-mapped cache %v, want %v", labels[i], same, dm)
		}
	}
}

// TestFanoutSpecErrors covers the parser's failure modes and flag
// interactions.
func TestFanoutSpecErrors(t *testing.T) {
	path := writeTestTrace(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad pair", []string{"-fanout", "victim"}, "want key=value"},
		{"unknown key", []string{"-fanout", "entries=4"}, "unknown key"},
		{"bad int", []string{"-fanout", "victim=many"}, "victim"},
		{"bad bool", []string{"-fanout", "quasi=perhaps"}, "quasi"},
		{"conflict", []string{"-fanout", "misscache=2,victim=2"}, "misscache"},
		{"bad geometry", []string{"-fanout", "size=1000"}, "size"},
		{"classify", []string{"-fanout", "victim=2", "-classify"}, "-classify"},
	}
	for _, tc := range cases {
		args := append([]string{"-trace", path}, tc.args...)
		code, _, errOut := runCmd(t, args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%s: code %d, stderr %q (want code 2 containing %q)",
				tc.name, code, errOut, tc.want)
		}
	}
}

// TestFanoutDineroAndTelemetry replays a dinero-format trace through the
// fan-out arm with metrics enabled — the decode-once case the engine is
// built for — and checks the run completes with the engine metrics
// exposed.
func TestFanoutDineroAndTelemetry(t *testing.T) {
	path := writeDineroTrace(t)
	code, out, errOut := runCmd(t, "-trace", path, "-format", "din",
		"-metrics-addr", "127.0.0.1:0",
		"-fanout", ";victim=2;victim=4,ways=4")
	if code != 0 {
		t.Fatalf("code %d: %s", code, errOut)
	}
	if !strings.Contains(out, "3 configurations") {
		t.Errorf("banner missing:\n%s", out)
	}
}

// TestStreamBuffersNeedWays pins the grammar's stream-buffer rule: ways=0
// and a depth on its own build no stream buffer, on the fan-out path and
// the single path alike, while quasi or stride with no ways is an error.
func TestStreamBuffersNeedWays(t *testing.T) {
	path := writeTestTrace(t)
	code, out, errOut := runCmd(t, "-trace", path, "-side", "data", "-fanout", ";ways=0;depth=8")
	if code != 0 {
		t.Fatalf("fanout run failed (%d): %s", code, errOut)
	}
	want := fanoutRow(t, out, "baseline")
	if want[2] != "0" {
		t.Fatalf("baseline row has aux hits: %v", want)
	}
	for _, label := range []string{"ways=0", "depth=8"} {
		if got := fanoutRow(t, out, label); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s row %v, want the baseline's %v", label, got, want)
		}
	}
	_, base, _ := runCmd(t, "-trace", path, "-side", "data")
	if _, single, _ := runCmd(t, "-trace", path, "-side", "data", "-ways", "0", "-depth", "8"); single != base {
		t.Errorf("-ways 0 -depth 8 differs from the baseline:\n%s\nwant:\n%s", single, base)
	}

	for _, args := range [][]string{{"-quasi"}, {"-stride"}, {"-fanout", "quasi=true"}, {"-fanout", "ways=0,stride=true"}} {
		code, out, errOut := runCmd(t, append([]string{"-trace", path}, args...)...)
		if code != 2 || !strings.Contains(errOut, "need stream buffers") || out != "" {
			t.Errorf("%v: exit %d, stderr %q (want exit 2: quasi/stride need ways)", args, code, errOut)
		}
	}
}

// TestFanoutSpecOverMainFlags pins that a -fanout spec is applied over
// the main flags: -depth 8 with a spec of ways=4 builds 4 buffers of
// depth 8, exactly the single replay with -ways 4 -depth 8. The buffers
// are quasi-sequential, whose hits depend on depth.
func TestFanoutSpecOverMainFlags(t *testing.T) {
	path := writeTestTrace(t)
	code, out, errOut := runCmd(t, "-trace", path, "-side", "data", "-depth", "8", "-fanout", "ways=4,quasi=true")
	if code != 0 {
		t.Fatalf("fanout run failed (%d): %s", code, errOut)
	}
	_, single, _ := runCmd(t, "-trace", path, "-side", "data", "-ways", "4", "-depth", "8", "-quasi")
	if !strings.Contains(single, "quasi-stream-4way-8deep") {
		t.Fatalf("single run is not a 4x8 stream buffer:\n%s", single)
	}
	row := fanoutRow(t, out, "ways=4,quasi=true")
	if got, want := row[2], singleStat(t, single, "aux hits:")[0]; got != want {
		t.Errorf("ways=4 over -depth 8: aux hits %s, want the 4x8 buffer's %s", got, want)
	}
	_, depth4, _ := runCmd(t, "-trace", path, "-side", "data", "-ways", "4", "-quasi")
	if singleStat(t, depth4, "aux hits:")[0] == row[2] {
		t.Errorf("ways=4 over -depth 8 matches the depth-4 buffer; -depth was not applied")
	}
}

// TestFanoutRejectsOtherLevels pins that cachesim, which replays one
// cache, rejects specs that would configure the instruction side or the
// L2 instead of ignoring them.
func TestFanoutRejectsOtherLevels(t *testing.T) {
	path := writeTestTrace(t)
	for _, spec := range []string{"sys=improved", "isize=2048", "iways=1", "ivictim=4", "l2size=2097152", "l2victim=4"} {
		code, out, errOut := runCmd(t, "-trace", path, "-fanout", ";"+spec)
		if code != 2 || !strings.Contains(errOut, "no instruction-side or L2 keys") || out != "" {
			t.Errorf("-fanout %q: exit %d, stderr %q (want exit 2)", spec, code, errOut)
		}
	}
	for _, spec := range []string{"size=8192", "dsize=8192", "line=32,dassoc=2", "sys=baseline"} {
		if code, _, errOut := runCmd(t, "-trace", path, "-fanout", spec); code != 0 {
			t.Errorf("-fanout %q: exit %d, stderr %q (a data-side spec)", spec, code, errOut)
		}
	}
}
