package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jouppi/internal/memtrace"
	"jouppi/internal/workload"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// writeTestTrace writes a small benchmark trace and returns its path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "met.jtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := memtrace.NewStreamWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	workload.Met().Generate(0.02, sw)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMissingTrace(t *testing.T) {
	if code, _, errOut := runCmd(t); code != 2 || !strings.Contains(errOut, "required") {
		t.Errorf("code %d, stderr %q", code, errOut)
	}
}

func TestConflictingFlags(t *testing.T) {
	code, _, errOut := runCmd(t, "-trace", "x", "-misscache", "2", "-victim", "2")
	if code != 2 || !strings.Contains(errOut, "misscache") {
		t.Errorf("code %d, stderr %q", code, errOut)
	}
}

func TestBadSideAndGeometry(t *testing.T) {
	path := writeTestTrace(t)
	if code, _, _ := runCmd(t, "-trace", path, "-side", "sideways"); code != 2 {
		t.Error("bad side accepted")
	}
	if code, _, _ := runCmd(t, "-trace", path, "-size", "100"); code != 2 {
		t.Error("bad geometry accepted")
	}
	if code, _, _ := runCmd(t, "-trace", path, "-format", "xml"); code != 2 {
		t.Error("bad format accepted")
	}
}

// TestUsageErrorsBeforeIO pins that a bad -format or -side is a usage
// error even when the trace cannot be opened: flags are checked before
// any I/O.
func TestUsageErrorsBeforeIO(t *testing.T) {
	for _, tc := range []struct {
		flag, want string
	}{
		{"-format", "-format must be jtr or din"},
		{"-side", "-side must be instr, data, or all"},
	} {
		code, out, errOut := runCmd(t, "-trace", "/definitely/missing.jtr", tc.flag, "bogus")
		if code != 2 || !strings.Contains(errOut, tc.want) || out != "" {
			t.Errorf("%s bogus: exit %d, stderr %q (want exit 2 containing %q)", tc.flag, code, errOut, tc.want)
		}
	}
}

func TestMissingFile(t *testing.T) {
	if code, _, _ := runCmd(t, "-trace", "/definitely/missing.jtr"); code != 1 {
		t.Error("missing file not reported")
	}
}

func TestBaselineRun(t *testing.T) {
	path := writeTestTrace(t)
	code, out, errOut := runCmd(t, "-trace", path, "-side", "data")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"configuration:", "accesses:", "full misses:", "baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVictimWithStreamAndClassify(t *testing.T) {
	path := writeTestTrace(t)
	code, out, _ := runCmd(t, "-trace", path, "-side", "data",
		"-victim", "4", "-ways", "4", "-classify")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"combined-vc4-sb4x4", "aux hits:", "3C (plain L1):", "conflict"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMissCacheRun(t *testing.T) {
	path := writeTestTrace(t)
	code, out, _ := runCmd(t, "-trace", path, "-misscache", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "miss-cache-2") {
		t.Errorf("output missing config name:\n%s", out)
	}
}

func TestStreamOnlyRunWithOptions(t *testing.T) {
	path := writeTestTrace(t)
	for _, extra := range [][]string{
		{"-ways", "1"},
		{"-ways", "4", "-quasi"},
		{"-ways", "4", "-stride"},
		{"-victim", "2"},
		{"-side", "instr"},
		{"-side", "all", "-assoc", "2"},
	} {
		args := append([]string{"-trace", path}, extra...)
		if code, _, errOut := runCmd(t, args...); code != 0 {
			t.Errorf("args %v: exit %d, stderr %q", extra, code, errOut)
		}
	}
}

// TestNegativeCountsRejected pins that a negative structure count or
// introspection setting is a usage error on both replay paths, never a
// silent fall-back to the baseline.
func TestNegativeCountsRejected(t *testing.T) {
	path := writeTestTrace(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-victim", "-2"}, "victim must not be negative"},
		{[]string{"-misscache", "-1"}, "misscache must not be negative"},
		{[]string{"-ways", "-1"}, "ways must not be negative"},
		{[]string{"-ways", "2", "-depth", "-4"}, "depth must not be negative"},
		{[]string{"-fanout", "victim=-2;ways=-1"}, "victim must not be negative"},
		{[]string{"-fanout", "victim=4;ways=2,depth=-1"}, "depth must not be negative"},
		{[]string{"-misscache", "-3", "-fanout", ";victim=4"}, "misscache must not be negative"},
		{[]string{"-phase", "-5"}, "-phase must not be negative"},
		{[]string{"-misssample", "-3"}, "-misssample must not be negative"},
		{[]string{"-misscap", "-1"}, "-misscap must not be negative"},
		{[]string{"-phase", "-5", "-fanout", "victim=4"}, "-phase must not be negative"},
	} {
		args := append([]string{"-trace", path}, tc.args...)
		code, out, errOut := runCmd(t, args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q (want exit 2 containing %q)", tc.args, code, errOut, tc.want)
		}
		if out != "" {
			t.Errorf("%v: printed results for a rejected configuration:\n%s", tc.args, out)
		}
	}
}
