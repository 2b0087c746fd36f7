package workload_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"jouppi/internal/fanout"
	"jouppi/internal/memtrace"
	"jouppi/internal/workload"
)

// generated streams bench at scale through the fan-out push path, the
// way a replay over several systems or under a cancellable context
// consumes a workload, and returns every record one consumer saw.
func generated(t *testing.T, ctx context.Context, b workload.Benchmark, scale float64) []memtrace.Access {
	t.Helper()
	var got []memtrace.Access
	gen := func(sink memtrace.Sink) { b.Generate(scale, sink) }
	collect := fanout.Func(func(a memtrace.Access) { got = append(got, a) })
	if err := fanout.Generate(ctx, gen, collect); err != nil {
		t.Fatalf("%s: %v", b.Name(), err)
	}
	return got
}

// A workload streamed chunk by chunk must deliver exactly the sequence
// its generator pushes, for every benchmark: same records, same order.
func TestSourceMatchesGenerate(t *testing.T) {
	for _, name := range workload.Names() {
		b := workload.MustByName(name)
		pushed := workload.GenerateTrace(b, 0.05)
		got := generated(t, context.Background(), b, 0.05)
		for i := 0; i < len(got) && i < pushed.Len(); i++ {
			if got[i] != pushed.At(i) {
				t.Fatalf("%s record %d: %v vs %v", name, i, got[i], pushed.At(i))
			}
		}
		if len(got) != pushed.Len() {
			t.Fatalf("%s: streamed %d records, generator pushed %d", name, len(got), pushed.Len())
		}
	}
}

// A stream run to its end under a cancellable context ends cleanly with
// every record delivered and leaves no goroutine behind: there is
// nothing left to close.
func TestSourceExhaustionThenClose(t *testing.T) {
	b := workload.MustByName("met")
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := generated(t, ctx, b, 0.01)
	if len(got) == 0 {
		t.Fatal("empty stream")
	}
	if want := workload.GenerateTrace(b, 0.01).Len(); len(got) != want {
		t.Errorf("streamed %d records, generator pushed %d", len(got), want)
	}
	// A consumer goroutine signals the replay's end just before it
	// exits, so the count may lag briefly.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before the stream", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
