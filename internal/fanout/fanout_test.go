package fanout

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// randomTrace builds a deterministic pseudo-random trace of n accesses.
func randomTrace(n int) *memtrace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := &memtrace.Trace{}
	kinds := []memtrace.Kind{memtrace.Ifetch, memtrace.Load, memtrace.Store}
	for i := 0; i < n; i++ {
		tr.Append(memtrace.Access{
			Addr: memtrace.Addr(rng.Uint64() % (1 << 20)),
			Kind: kinds[rng.Intn(len(kinds))],
		})
	}
	return tr
}

// sized returns an engine with chunk-access chunks and a ring of ring
// chunks per broadcast consumer.
func sized(chunk, ring int) *Engine {
	e := New()
	e.chunk, e.ring = chunk, ring
	return e
}

// collector records every access it consumes, in order.
type collector struct {
	got []memtrace.Access
}

func (c *collector) Consume(chunk []memtrace.Access) {
	c.got = append(c.got, chunk...)
}

// sequential is the reference: what a plain single-pass replay delivers.
func sequential(tr *memtrace.Trace) []memtrace.Access {
	var out []memtrace.Access
	tr.Each(func(a memtrace.Access) { out = append(out, a) })
	return out
}

func sameAccesses(t *testing.T, label string, want, got []memtrace.Access) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d accesses, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: access %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestReplayEquivalence is the bit-identity pin: every consumer of a
// fan-out replay must observe exactly the sequence a sequential replay
// delivers, for consumer counts on both sides of the inline fast path
// and for traces that do not divide evenly into chunks.
func TestReplayEquivalence(t *testing.T) {
	for _, n := range []int{0, 1, 100, 4096, 4097, 10000} {
		tr := randomTrace(n)
		want := sequential(tr)
		for _, consumers := range []int{1, 2, 3, 8} {
			eng := sized(512, 2)
			cs := make([]*collector, consumers)
			args := make([]Consumer, consumers)
			for i := range cs {
				cs[i] = &collector{}
				args[i] = cs[i]
			}
			if err := eng.Replay(context.Background(), tr.Source(), args...); err != nil {
				t.Fatalf("n=%d consumers=%d: %v", n, consumers, err)
			}
			for i, c := range cs {
				sameAccesses(t, "n="+itoa(n)+" consumer "+itoa(i), want, c.got)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestReplayFuncAndSink covers the two adapters.
func TestReplayFuncAndSink(t *testing.T) {
	tr := randomTrace(1000)
	want := sequential(tr)

	var viaFunc []memtrace.Access
	var viaSink []memtrace.Access
	sink := memtrace.SinkFunc(func(a memtrace.Access) { viaSink = append(viaSink, a) })
	err := Replay(context.Background(), tr.Source(),
		Func(func(a memtrace.Access) { viaFunc = append(viaFunc, a) }),
		Sink(sink))
	if err != nil {
		t.Fatal(err)
	}
	sameAccesses(t, "Func adapter", want, viaFunc)
	sameAccesses(t, "Sink adapter", want, viaSink)
}

// TestReplayArgumentErrors pins the pre-flight checks: nil sources and
// nil consumers are rejected before any record moves, and zero consumers
// is a no-op that leaves the source untouched.
func TestReplayArgumentErrors(t *testing.T) {
	if err := Replay(context.Background(), nil, &collector{}); err != memtrace.ErrNilSource {
		t.Errorf("nil source: got %v, want ErrNilSource", err)
	}
	tr := randomTrace(10)
	if err := Replay(context.Background(), tr.Source(), &collector{}, nil); err != ErrNilConsumer {
		t.Errorf("nil consumer: got %v, want ErrNilConsumer", err)
	}
	src := tr.Source()
	if err := Replay(context.Background(), src); err != nil {
		t.Errorf("zero consumers: got %v, want nil", err)
	}
	if a, ok := src.Next(); !ok {
		t.Error("zero-consumer replay consumed the source")
	} else if a != sequential(tr)[0] {
		t.Errorf("source advanced: first access now %+v", a)
	}
}

// TestReplayTelemetry checks the engine's metrics: chunk and record
// counters, the consumer-count gauge, and per-consumer lag gauges all
// registered with valid names; detaching returns every update to a no-op.
func TestReplayTelemetry(t *testing.T) { bothPaths(t, testReplayTelemetry) }

func testReplayTelemetry(t *testing.T) {
	tr := randomTrace(2500)
	reg := telemetry.NewRegistry()
	eng := sized(1000, 2)
	eng.AttachTelemetry(reg)
	if err := eng.Replay(context.Background(), tr.Source(), &collector{}, &collector{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap["fanout_chunks_total"]; got != 3 {
		t.Errorf("fanout_chunks_total = %v, want 3", got)
	}
	if got := snap["fanout_records_total"]; got != 2500 {
		t.Errorf("fanout_records_total = %v, want 2500", got)
	}
	if got := snap["fanout_consumers"]; got != 2 {
		t.Errorf("fanout_consumers = %v, want 2", got)
	}
	for _, name := range []string{"fanout_broadcast_depth", "fanout_consumer_lag_0", "fanout_consumer_lag_1"} {
		v, ok := snap[name]
		if !ok {
			t.Errorf("metric %s not registered; snapshot %v", name, snap)
		}
		// On one P the consumers run inline and never fall behind.
		if runtime.GOMAXPROCS(0) == 1 && v != 0 {
			t.Errorf("inline replay: %s = %v, want 0", name, v)
		}
	}

	// Detach: replaying again must not advance the registry.
	eng.AttachTelemetry(nil)
	if err := eng.Replay(context.Background(), tr.Source(), &collector{}, &collector{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()["fanout_records_total"]; got != 2500 {
		t.Errorf("detached engine still counted: fanout_records_total = %v", got)
	}
}

// TestReplayInlineTelemetry covers the single-consumer fast path's
// counters, which share countChunk with the broadcast path.
func TestReplayInlineTelemetry(t *testing.T) {
	tr := randomTrace(1500)
	reg := telemetry.NewRegistry()
	eng := sized(1000, ringSize)
	eng.AttachTelemetry(reg)
	if err := eng.Replay(context.Background(), tr.Source(), &collector{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap["fanout_chunks_total"]; got != 2 {
		t.Errorf("fanout_chunks_total = %v, want 2", got)
	}
	if got := snap["fanout_records_total"]; got != 1500 {
		t.Errorf("fanout_records_total = %v, want 1500", got)
	}
	if got := snap["fanout_consumers"]; got != 1 {
		t.Errorf("fanout_consumers = %v, want 1", got)
	}
}

// TestConsumerPanicError covers the error formatting used by the
// experiment shield when a relayed panic is rendered as a failure.
func TestConsumerPanicError(t *testing.T) {
	p := &ConsumerPanic{Consumer: 3, Val: "boom"}
	want := "fanout: consumer 3 panicked: boom"
	if got := p.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
