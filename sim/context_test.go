package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"jouppi/internal/workload"
)

// TestRunBenchmarkContextMatchesRunBenchmark pins that the cancellable
// replay path (chunked through the fan-out engine, chosen because the
// context can be cancelled) produces results bit-identical to
// RunBenchmark's direct path. The name is kept from the context-taking
// RunBenchmark variant that Replay replaced.
func TestRunBenchmarkContextMatchesRunBenchmark(t *testing.T) {
	cfg := BaselineSystem()
	plain, err := RunBenchmark("linpack", 0.05, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// context.Background has a nil Done channel, so force the chunked
	// path with a cancellable (but never cancelled) context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src, err := Benchmark("linpack", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	withCtx := replayOnce(t, ctx, src, false, cfg)[0]
	if bitsOf(plain) != bitsOf(withCtx) {
		t.Errorf("results differ:\n push: %+v\n pull: %+v", plain, withCtx)
	}
}

// TestReplayCancelled pins that an already-cancelled context stops every
// replay path before it runs the trace: generated benchmarks through one
// system and through fan-out, and a decoded stream.
func TestReplayCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bench, err := Benchmark("linpack", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	stream := func() *Source {
		return Stream(workload.GenerateTrace(workload.MustByName("linpack"), 0.05).Source())
	}
	for _, tc := range []struct {
		name    string
		src     *Source
		systems int
	}{
		{"one system", bench, 1},
		{"fan-out", bench, 2},
		{"stream", stream(), 1},
	} {
		systems := make([]*System, tc.systems)
		for i := range systems {
			if systems[i], err = NewSystem(ImprovedSystem()); err != nil {
				t.Fatal(err)
			}
		}
		if err := Replay(ctx, tc.src, systems...); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestReplayDeadline pins that a deadline cuts a long replay short
// promptly, with the deadline's error.
func TestReplayDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	// A scale this large would run for a long time uninterrupted.
	src, err := Benchmark("linpack", 500)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(BaselineSystem())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Replay(ctx, src, sys); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to take effect", elapsed)
	}
}

// TestGeneratedReplayMemoryFlat pins that a generated replay through
// several systems under a cancellable context allocates no more for a
// longer trace: the chunks it pushes reuse their buffers.
func TestGeneratedReplayMemoryFlat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocated := func(scale float64) uint64 {
		src, err := Benchmark("ccom", scale)
		if err != nil {
			t.Fatal(err)
		}
		systems := make([]*System, 4)
		for i := range systems {
			if systems[i], err = NewSystem(ImprovedSystem()); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Replay(ctx, src, systems...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 256 << 10
	short, long := allocated(0.05), allocated(0.2)
	if long > short+slack {
		t.Errorf("replay at scale 0.2 allocated %d bytes, at 0.05 %d: more than %d apart", long, short, slack)
	}
}
