package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadScaleIsUsageError(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.jtr")
	for _, scale := range []string{"0", "-0.5", "+Inf", "NaN"} {
		code, _, errOut := runCmd(t, "-bench", "met", "-scale", scale, "-o", out)
		if code != 2 || !strings.Contains(errOut, "scale") {
			t.Errorf("scale %s: code %d, stderr %q", scale, code, errOut)
		}
	}
}

func TestUnwritableOutputFails(t *testing.T) {
	code, _, errOut := runCmd(t, "-bench", "met", "-scale", "0.01", "-o", "/nonexistent-dir/x.jtr")
	if code != 1 || errOut == "" {
		t.Errorf("code %d, stderr %q, want runtime failure on stderr", code, errOut)
	}
}

// TestUnknownFormatKeepsExistingOutput pins that a rejected -format
// leaves an existing output file byte-identical instead of truncating it.
func TestUnknownFormatKeepsExistingOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "existing.jtr")
	if code, _, errOut := runCmd(t, "-bench", "met", "-scale", "0.01", "-o", path); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCmd(t, "-bench", "met", "-scale", "0.01", "-o", path, "-format", "xml"); code != 2 {
		t.Fatalf("-format xml: exit %d, stderr %q", code, errOut)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("existing output changed by a rejected -format (err %v, %d bytes, want %d)", err, len(got), len(want))
	}
}
