package fanout

import (
	"context"
	"runtime"
	"testing"
	"time"

	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
)

// generator returns the push producer for workload name at scale.
func generator(name string, scale float64) func(memtrace.Sink) {
	b := workload.MustByName(name)
	return func(sink memtrace.Sink) { b.Generate(scale, sink) }
}

// inlineProbe fails the test if a consumer ever runs while more
// goroutines exist than before the replay started: at one P a generated
// replay must not start any.
type inlineProbe struct {
	t      *testing.T
	before int
}

func (p *inlineProbe) Consume([]memtrace.Access) {
	if n := runtime.NumGoroutine(); n > p.before {
		p.t.Errorf("inline replay runs %d goroutines, %d before it started", n, p.before)
	}
}

// noGoroutineLeft waits for the goroutine count to fall back to before.
// A broadcast consumer goroutine has signalled its WaitGroup just before
// it exits, so the count may lag briefly.
func noGoroutineLeft(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before the replay", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGenerateMatchesGenerateTrace pins the push path: every consumer of
// a generated replay sees exactly the sequence the benchmark's generator
// pushes, for every benchmark, to the last record, and the engine counts
// every record. At one P no goroutine is started.
func TestGenerateMatchesGenerateTrace(t *testing.T) { bothPaths(t, testGenerateMatchesGenerateTrace) }

func testGenerateMatchesGenerateTrace(t *testing.T) {
	for _, name := range workload.Names() {
		want := sequential(workload.GenerateTrace(workload.MustByName(name), 0.05))
		reg := telemetry.NewRegistry()
		eng := New()
		eng.AttachTelemetry(reg)
		a, b := &collector{}, &collector{}
		consumers := []Consumer{a, b}
		if runtime.GOMAXPROCS(0) == 1 {
			consumers = append(consumers, &inlineProbe{t: t, before: runtime.NumGoroutine()})
		}
		if err := eng.Generate(context.Background(), generator(name, 0.05), consumers...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameAccesses(t, name+" consumer 0", want, a.got)
		sameAccesses(t, name+" consumer 1", want, b.got)
		if got := reg.Snapshot()["fanout_records_total"]; got != float64(len(want)) {
			t.Errorf("%s: fanout_records_total = %v, want %d", name, got, len(want))
		}
	}
}

// TestGenerateCancelMidStream cancels a long generated replay part-way
// through: Generate returns ctx's error, the generator stops (it never
// runs past its push) and no goroutine is left behind.
func TestGenerateCancelMidStream(t *testing.T) { bothPaths(t, testGenerateCancelMidStream) }

func testGenerateCancelMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := &cancelAfter{n: 3, cancel: cancel}
	bystander := &collector{}
	finished := false
	gen := func(sink memtrace.Sink) {
		generator("linpack", 0.5)(sink)
		finished = true
	}
	if err := sized(512, 2).Generate(ctx, gen, trigger, bystander); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finished {
		t.Error("the generator ran to its end after the cancel")
	}
	want := sequential(workload.GenerateTrace(workload.MustByName("linpack"), 0.5))
	if got := trigger.total.Load(); got >= int64(len(want)) {
		t.Errorf("cancellation did not stop the stream: consumer saw all %d records", got)
	}
	sameAccesses(t, "bystander prefix", want[:len(bystander.got)], bystander.got)
	noGoroutineLeft(t, before)
}

// TestGenerateConsumerPanic pins the relay on the push path: a consumer
// panic unwinds the generator and comes back as a *ConsumerPanic naming
// the consumer, after the other consumers have stopped.
func TestGenerateConsumerPanic(t *testing.T) { bothPaths(t, testGenerateConsumerPanic) }

func testGenerateConsumerPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	finished := false
	gen := func(sink memtrace.Sink) {
		generator("ccom", 0.05)(sink)
		finished = true
	}
	v := recovered(func() { _ = sized(512, 2).Generate(context.Background(), gen, &collector{}, &panicky{n: 2}) })
	cp, ok := v.(*ConsumerPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *ConsumerPanic", v, v)
	}
	if cp.Consumer != 1 || cp.Val != "injected consumer failure" {
		t.Errorf("relayed %v", cp)
	}
	if finished {
		t.Error("the generator ran to its end after a consumer panicked")
	}
	noGoroutineLeft(t, before)
}

// TestGenerateGeneratorPanic pins that a panic of the generator's own
// reaches the caller unchanged, once every consumer has stopped.
func TestGenerateGeneratorPanic(t *testing.T) { bothPaths(t, testGenerateGeneratorPanic) }

func testGenerateGeneratorPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	gen := func(sink memtrace.Sink) {
		for i := 0; i < 2500; i++ {
			sink.Access(memtrace.Access{Addr: memtrace.Addr(i)})
		}
		panic("injected generator failure")
	}
	a, b := &collector{}, &collector{}
	if v := recovered(func() { _ = sized(1000, 2).Generate(context.Background(), gen, a, b) }); v != "injected generator failure" {
		t.Fatalf("recovered %v, want the generator's own panic", v)
	}
	if len(a.got) != 2000 || len(b.got) != 2000 {
		t.Errorf("consumers saw %d and %d records, want the 2000 of the two full chunks", len(a.got), len(b.got))
	}
	noGoroutineLeft(t, before)
}

// TestGenerateArgumentErrors pins Generate's pre-flight checks: a nil
// consumer is rejected and zero consumers is a no-op, and neither runs
// the generator.
func TestGenerateArgumentErrors(t *testing.T) {
	ran := false
	gen := func(memtrace.Sink) { ran = true }
	if err := Generate(context.Background(), gen, &collector{}, nil); err != ErrNilConsumer {
		t.Errorf("nil consumer: got %v, want ErrNilConsumer", err)
	}
	if err := Generate(context.Background(), gen); err != nil {
		t.Errorf("zero consumers: got %v, want nil", err)
	}
	if ran {
		t.Error("the generator ran with nothing to deliver to")
	}
}

// recovered runs fn and returns what it panicked with, or nil.
func recovered(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}
