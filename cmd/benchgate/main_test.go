package main

import (
	"strings"
	"testing"
)

// artifact is a BENCH_telemetry.json reduced to the columns the gate
// reads, with the overheads inside their budgets. Its paired file ratio
// is the ratio of the two arms' ns/op.
func artifact(memNs, fileNs, fileAllocs int64) report {
	return report{
		Off:        entry{NsPerOp: memNs, AllocsPerOp: 28},
		OverheadP:  4.0,
		IntroOverP: 2.6,
		File: fileReplay{
			Format:    "din",
			Off:       entry{NsPerOp: fileNs, AllocsPerOp: fileAllocs},
			On:        entry{NsPerOp: fileNs, AllocsPerOp: fileAllocs + 172},
			OverheadP: 1.0,
			Ratio:     float64(fileNs) / float64(memNs),
		},
	}
}

// TestFileRatioBound checks the decode-cost bound on the numbers
// measured before and after din decoding took canonical lines through
// the scan loop's fixed-window step, interleaved on one 2-CPU host: the
// din replay took 1.71x the in-memory replay before, which fails, and
// 1.36x after, which passes at 1.6x. The 3.09x measured before din decode
// scanned its read buffer fails too.
func TestFileRatioBound(t *testing.T) {
	before := artifact(2404230, 4110611, 30)
	after := artifact(2452947, 3336328, 30)

	failures := check(before, before, defaults)
	if len(failures) != 1 || !strings.Contains(failures[0], "1.71x the in-memory replay exceeds budget 1.60x") {
		t.Errorf("before: failures %q, want the file-ratio bound alone", failures)
	}
	lineScan := artifact(2746956, 8487053, 32)
	if failures := check(after, lineScan, defaults); len(failures) != 1 ||
		!strings.Contains(failures[0], "3.09x the in-memory replay exceeds budget 1.60x") {
		t.Errorf("line scan: failures %q, want the file-ratio bound alone", failures)
	}
	if failures := check(before, after, defaults); len(failures) != 0 {
		t.Errorf("after: failures %q, want none", failures)
	}
	if failures := check(after, after, defaults); len(failures) != 0 {
		t.Errorf("after, gated against itself: failures %q, want none", failures)
	}
	// The gate reads the paired ratio, not the arms' ns/op: a noisy host
	// once put the minima at 1.61x (3.40 against 2.11 ms) while the
	// decode had not changed.
	noisy := artifact(2110000, 3400000, 30)
	noisy.File.Ratio = 1.38
	if failures := check(after, noisy, defaults); len(failures) != 0 {
		t.Errorf("noisy minima, paired ratio 1.38: failures %q, want none", failures)
	}
	noisy.File.Ratio = 1.65
	if failures := check(after, noisy, defaults); len(failures) != 1 ||
		!strings.Contains(failures[0], "1.65x the in-memory replay exceeds budget 1.60x (paired;") {
		t.Errorf("paired ratio 1.65: failures %q, want the file-ratio bound alone", failures)
	}
}

// TestAllocBound checks that the alloc bound still scales the baseline:
// 50 allocs/op breaks 33 × 1.5, and the telemetry-on arm's 222 stays
// under 205 × 1.5.
func TestAllocBound(t *testing.T) {
	base := artifact(2452947, 3336328, 33)
	grown := artifact(2452947, 3336328, 50)
	failures := check(base, grown, defaults)
	if len(failures) != 1 || !strings.Contains(failures[0], "(telemetry off): 50 allocs/op exceeds 49") {
		t.Errorf("failures %q, want the telemetry-off arm over the alloc bound", failures)
	}
}

// grouped adds a grouped-replay arm to a: its ratio to one system at
// GOMAXPROCS 1 and its bytes per op.
func grouped(a report, ratio float64, bytes int64) report {
	a.Grouped = groupedReplay{Systems: 4, Grouped: entry{NsPerOp: 4868536, BytesPerOp: bytes}, Ratio1CPU: ratio}
	return a
}

// TestGroupedRatioBound checks the grouped-replay bounds on the numbers
// measured before and after sim.Replay grouped systems on equal L1s, on
// one 2-CPU host: four systems took 3.59x one system with an L1 probe
// each, which fails, and 1.89x with one probe per distinct L1, which
// passes. Losing the grouping at two Ps also broadcasts, with a ring of
// chunks per system: 1492818 B/op against 914756 breaks the bytes bound.
func TestGroupedRatioBound(t *testing.T) {
	base := artifact(2452947, 3336328, 33)
	before := grouped(base, 3.59, 1492818)
	after := grouped(base, 1.89, 914756)

	failures := check(after, before, defaults)
	if len(failures) != 2 || !strings.Contains(failures[0], "3.59x one system exceeds budget 2.30x") ||
		!strings.Contains(failures[1], "1492818 B/op exceeds 1143445") {
		t.Errorf("before: failures %q, want the ratio and bytes bounds", failures)
	}
	if failures := check(after, after, defaults); len(failures) != 0 {
		t.Errorf("after, gated against itself: failures %q, want none", failures)
	}
	if failures := check(base, after, defaults); len(failures) != 0 {
		t.Errorf("after, against a baseline without the arm: failures %q, want none", failures)
	}
}

// TestSweepRatioBound checks the sweep-replay bound: the eight sweep
// configurations on their two distinct caches took 0.62x the replay
// with a cache per configuration through the chunk path on one 2-CPU
// host, which passes at 0.8x; a sweep that lost its grouping runs the
// same probes in both arms and reads 1.0x, which fails.
func TestSweepRatioBound(t *testing.T) {
	base := artifact(2452947, 3336328, 33)
	sweep := func(ratio float64) report {
		a := base
		a.Sweep = sweepReplay{Configs: 8, Grouped: entry{NsPerOp: 1142946}, Ratio1CPU: ratio}
		return a
	}
	lost, after := sweep(1.0), sweep(0.62)

	failures := check(after, lost, defaults)
	if len(failures) != 1 || !strings.Contains(failures[0], "1.00x one cache per configuration exceeds budget 0.80x") {
		t.Errorf("lost grouping: failures %q, want the sweep-ratio bound alone", failures)
	}
	if failures := check(after, after, defaults); len(failures) != 0 {
		t.Errorf("after, gated against itself: failures %q, want none", failures)
	}
	if failures := check(base, after, defaults); len(failures) != 0 {
		t.Errorf("after, against a baseline without the arm: failures %q, want none", failures)
	}
}

// upload adds an upload-admission arm to a: BenchmarkUploadSubmit's
// bytes and allocations per op, and a time per op the gate ignores.
func upload(a report, ns, bytes, allocs int64) report {
	a.Upload.Submit = entry{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
	return a
}

// TestUploadSubmitBounds checks the upload-admission bounds against the
// 2333789 B/op and 344 allocs/op one 100k-record upload took on a 2-CPU
// host: 3.4 MB/op (the admission while it still built every
// configuration to validate it) breaks 1.25x the bytes, 600 allocs/op breaks 1.5x the allocations, and
// a doubled ns/op alone fails nothing.
func TestUploadSubmitBounds(t *testing.T) {
	plain := artifact(2452947, 3336328, 33)
	base := upload(plain, 4284732, 2333789, 344)

	failures := check(base, upload(plain, 4284732, 3400000, 344), defaults)
	if len(failures) != 1 || !strings.Contains(failures[0], "upload submit: 3400000 B/op exceeds 2917236") {
		t.Errorf("grown bytes: failures %q, want the upload bytes bound alone", failures)
	}
	failures = check(base, upload(plain, 4284732, 2333789, 600), defaults)
	if len(failures) != 1 || !strings.Contains(failures[0], "upload submit: 600 allocs/op exceeds 516") {
		t.Errorf("grown allocs: failures %q, want the upload allocs bound alone", failures)
	}
	if failures := check(base, upload(plain, 2*4284732, 2333789, 344), defaults); len(failures) != 0 {
		t.Errorf("doubled ns/op: failures %q, want none", failures)
	}
	if failures := check(plain, base, defaults); len(failures) != 0 {
		t.Errorf("against a baseline without the arm: failures %q, want none", failures)
	}
}
