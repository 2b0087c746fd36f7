package sim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVisitBenchmark(t *testing.T) {
	var ifetches, loads, stores uint64
	err := VisitBenchmark("met", 0.02, func(kind AccessKind, addr uint64) {
		switch kind {
		case Ifetch:
			ifetches++
		case Load:
			loads++
		case Store:
			stores++
		}
		if addr == 0 {
			t.Error("zero address visited")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ifetches == 0 || loads == 0 || stores == 0 {
		t.Errorf("counts: ifetch %d, load %d, store %d", ifetches, loads, stores)
	}
	if err := VisitBenchmark("nope", 1, func(AccessKind, uint64) {}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestAccessKindString(t *testing.T) {
	if Ifetch.String() != "ifetch" || Load.String() != "load" || Store.String() != "store" {
		t.Error("kind names wrong")
	}
	if AccessKind(9).String() != "AccessKind(9)" {
		t.Error("unknown kind name wrong")
	}
}

// TestWriteTraceFileRoundTrip writes a trace in each format and replays
// it from the file: every written record is replayed, with the numbers
// of the generated benchmark.
func TestWriteTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"jtr", "din"} {
		path := filepath.Join(dir, "met."+format)
		n, err := WriteTraceFile("met", 0.02, path, format)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if n == 0 {
			t.Fatalf("%s: zero records", format)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: file missing or empty", format)
		}
		res := replayFile(t, path, format, BaselineSystem())
		if res.Instructions == 0 || res.I.Accesses+res.D.Accesses != n {
			t.Errorf("%s replay saw %d of %d records: %+v", format, res.I.Accesses+res.D.Accesses, n, res)
		}
		// Replaying the file must match running the benchmark directly.
		direct, err := RunBenchmark("met", 0.02, BaselineSystem())
		if err != nil {
			t.Fatal(err)
		}
		if res.D.FullMisses != direct.D.FullMisses {
			t.Errorf("%s replay misses %d != direct %d",
				format, res.D.FullMisses, direct.D.FullMisses)
		}
	}
}

func TestTraceFileErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jtr")
	if _, err := WriteTraceFile("met", 0.01, path, "jtr"); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every argument is checked before the output is created (and so
	// truncated): a rejected call leaves an existing file byte-identical.
	for _, tc := range []struct {
		name, bench, format string
		scale               float64
	}{
		{"format", "met", "xml", 0.01},
		{"benchmark", "nope", "jtr", 0.01},
		{"scale", "met", "jtr", -1},
	} {
		if _, err := WriteTraceFile(tc.bench, tc.scale, path, tc.format); err == nil {
			t.Errorf("bad %s accepted", tc.name)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("bad %s: existing file changed (err %v, %d bytes, want %d)", tc.name, err, len(got), len(want))
		}
	}
	if _, err := WriteTraceFile("met", 0.01, filepath.Join(dir, "nodir", "x"), "jtr"); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := OpenTrace(filepath.Join(dir, "missing"), "jtr"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := OpenTrace(path, "xml"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("bad replay format: err = %v, want ErrUnknownFormat", err)
	}
	src, err := OpenTrace(path, "din")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(context.Background(), src, sys); err == nil {
		t.Error("jtr-as-din accepted")
	}
	din := filepath.Join(dir, "t.din")
	if _, err := WriteTraceFile("met", 0.01, din, "din"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrace(din, "jtr"); err == nil {
		t.Error("din-as-jtr accepted")
	}
}

// replayFile replays a trace file through one system built from cfg.
func replayFile(t *testing.T, path, format string, cfg Config) Results {
	t.Helper()
	src, err := OpenTrace(path, format)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(context.Background(), src, sys); err != nil {
		t.Fatalf("%s replay: %v", format, err)
	}
	return sys.Results()
}

// TestBadScaleRejected pins that every entry point taking a workload
// scale rejects zero, negative and non-finite scales instead of
// emitting an empty or degenerate trace.
func TestBadScaleRejected(t *testing.T) {
	dir := t.TempDir()
	entries := map[string]func(scale float64) error{
		"VisitBenchmark": func(scale float64) error {
			return VisitBenchmark("met", scale, func(AccessKind, uint64) {
				t.Errorf("scale %v: a reference was visited", scale)
			})
		},
		"WriteTraceFile": func(scale float64) error {
			path := filepath.Join(dir, "x.jtr")
			_, err := WriteTraceFile("met", scale, path, "jtr")
			if _, serr := os.Stat(path); serr == nil {
				t.Errorf("scale %v: output file created", scale)
				os.Remove(path)
			}
			return err
		},
		"Replay": func(scale float64) error {
			_, err := Benchmark("met", scale)
			return err
		},
	}
	for name, entry := range entries {
		for _, scale := range []float64{math.NaN(), 0, -1, math.Inf(1), math.Inf(-1)} {
			if err := entry(scale); err == nil || !strings.Contains(err.Error(), "scale") {
				t.Errorf("%s: scale %v: err = %v, want a scale error", name, scale, err)
			}
		}
	}
}
