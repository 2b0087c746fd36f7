package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The stdout goldens pin tracestat's output byte for byte on generated
// traces; the trace's temporary path is replaced by TRACE. Regenerate
// deliberately with
//
//	go test ./cmd/tracestat -run TestGoldenStdout -update
var updateGolden = flag.Bool("update", false, "rewrite the stdout goldens in testdata/")

func TestGoldenStdout(t *testing.T) {
	jtr, din, corrupt := writeTrace(t, false), writeTrace(t, true), writeCorruptDin(t)
	for _, tc := range []struct {
		name  string
		trace string
		args  []string
	}{
		{"jtr-default", jtr, nil},
		{"jtr-curve-hotspots-pressure", jtr, []string{"-curve", "-hotspots", "4", "-pressure"}},
		{"din-small-probe", din, []string{"-format", "din", "-size", "1024", "-line", "32", "-window", "5000"}},
		{"lenient-din", corrupt, []string{"-format", "din", "-lenient", "-curve"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCmd(t, append([]string{"-trace", tc.trace}, tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, errOut)
			}
			out = strings.ReplaceAll(out, tc.trace, "TRACE")
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if out != string(want) {
				t.Errorf("stdout differs from the golden\n--- got ---\n%s\n--- want ---\n%s", out, want)
			}
		})
	}
}
