package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The stdout goldens pin cachesim's output byte for byte on generated
// traces, in every mode: a replay refactor must leave them untouched.
// Regenerate deliberately with
//
//	go test ./cmd/cachesim -run TestGoldenStdout -update
var updateGolden = flag.Bool("update", false, "rewrite the stdout goldens in testdata/")

// sweepSpec is the paper's eight-configuration sweep as one -fanout list.
const sweepSpec = ";misscache=4;victim=1;victim=4;ways=1;ways=4;victim=4,ways=4;assoc=4"

// checkGolden compares got with testdata/name.golden, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("%s: stdout differs from the golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenStdout(t *testing.T) {
	jtr, din, corrupt := writeTestTrace(t), writeDineroTrace(t), writeCorruptDin(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"din-victim4-ways4", []string{"-trace", din, "-format", "din", "-side", "data", "-victim", "4", "-ways", "4"}},
		{"jtr-sweep", []string{"-trace", jtr, "-side", "data", "-fanout", sweepSpec}},
		{"din-sweep", []string{"-trace", din, "-format", "din", "-side", "all", "-fanout", sweepSpec}},
		{"classify", []string{"-trace", jtr, "-side", "data", "-misscache", "2", "-classify"}},
		{"heatmap-phase", []string{"-trace", jtr, "-side", "data", "-victim", "4", "-heatmap", "-phase", "2000", "-misssample", "50"}},
		{"instr-stream", []string{"-trace", jtr, "-side", "instr", "-ways", "4", "-depth", "2", "-quasi"}},
		{"lenient-din", []string{"-trace", corrupt, "-format", "din", "-side", "instr", "-lenient"}},
		{"lenient-din-fanout", []string{"-trace", corrupt, "-format", "din", "-side", "all", "-lenient", "-fanout", ";victim=4"}},
		{"instr-sweep", []string{"-trace", jtr, "-side", "instr", "-fanout", sweepSpec}},
		{"lenient-din-data-fanout", []string{"-trace", corrupt, "-format", "din", "-side", "data", "-lenient", "-fanout", ";victim=4"}},
		{"lenient-jtr-clean", []string{"-trace", jtr, "-side", "data", "-lenient", "-victim", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCmd(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, errOut)
			}
			checkGolden(t, tc.name, out)
		})
	}
}
