package fanout

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jouppi/internal/memtrace"
)

// These tests exist to run meaningfully under -race (make test runs the
// whole suite with the detector on): mixed-speed consumers exercise the
// backpressure path, cancellation exercises the producer's select, and a
// panicking consumer exercises the relay and drain logic.

// bothPaths runs test once per dispatch path whatever the host's core
// count: at GOMAXPROCS 1, where Replay hands each chunk to the consumers
// in turn on the caller's goroutine, and at GOMAXPROCS 2, where it
// broadcasts to a goroutine per consumer. Every multi-consumer contract
// must hold on both.
func bothPaths(t *testing.T, test func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			test(t)
		})
	}
}

// slowConsumer yields the scheduler on every chunk so faster consumers
// race ahead to the ring bound.
type slowConsumer struct {
	collector
	delay time.Duration
}

func (s *slowConsumer) Consume(chunk []memtrace.Access) {
	time.Sleep(s.delay)
	s.collector.Consume(chunk)
}

// TestReplaySlowFastConsumers pins that backpressure (a slow consumer
// pinned at the ring bound) never costs correctness: both consumers see
// the identical full sequence.
func TestReplaySlowFastConsumers(t *testing.T) { bothPaths(t, testReplaySlowFastConsumers) }

func testReplaySlowFastConsumers(t *testing.T) {
	tr := randomTrace(8192)
	want := sequential(tr)
	slow := &slowConsumer{delay: 100 * time.Microsecond}
	fast := &collector{}
	eng := sized(256, 2)
	if err := eng.Replay(context.Background(), tr.Source(), slow, fast); err != nil {
		t.Fatal(err)
	}
	sameAccesses(t, "slow", want, slow.got)
	sameAccesses(t, "fast", want, fast.got)
}

// cancelAfter cancels the context once it has consumed n chunks.
type cancelAfter struct {
	n      int
	seen   int
	cancel context.CancelFunc
	total  atomic.Int64
}

func (c *cancelAfter) Consume(chunk []memtrace.Access) {
	c.total.Add(int64(len(chunk)))
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

// TestReplayCancellation cancels mid-stream from inside a consumer and
// checks the producer stops promptly with ctx's error while the other
// consumer exits cleanly having seen only a prefix.
func TestReplayCancellation(t *testing.T) { bothPaths(t, testReplayCancellation) }

func testReplayCancellation(t *testing.T) {
	tr := randomTrace(100000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := &cancelAfter{n: 3, cancel: cancel}
	bystander := &collector{}
	eng := sized(512, 2)
	err := eng.Replay(ctx, tr.Source(), trigger, bystander)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := trigger.total.Load(); got >= int64(tr.Len()) {
		t.Errorf("cancellation did not stop the stream: consumer saw all %d records", got)
	}
	if len(bystander.got) > tr.Len() {
		t.Errorf("bystander saw %d records, trace has only %d", len(bystander.got), tr.Len())
	}
	// Whatever prefix the bystander saw must match the sequential order.
	want := sequential(tr)
	sameAccesses(t, "bystander prefix", want[:len(bystander.got)], bystander.got)
}

// TestReplayInlineCancellation covers the single-consumer fast path's
// cancellation poll.
func TestReplayInlineCancellation(t *testing.T) {
	tr := randomTrace(100000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := &cancelAfter{n: 2, cancel: cancel}
	eng := sized(512, ringSize)
	if err := eng.Replay(ctx, tr.Source(), trigger); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := trigger.total.Load(); got >= int64(tr.Len()) {
		t.Errorf("cancellation did not stop the inline stream: saw all %d records", got)
	}
}

// panicky panics while consuming its nth chunk.
type panicky struct {
	collector
	n int
}

func (p *panicky) Consume(chunk []memtrace.Access) {
	if len(p.got)/cap(chunk) >= p.n-1 && p.n > 0 {
		panic("injected consumer failure")
	}
	p.collector.Consume(chunk)
}

// TestReplayConsumerPanic injects a panic into one consumer of a group
// and checks the contract: Replay re-panics a *ConsumerPanic naming the
// culprit, the producer stops instead of deadlocking, and the surviving
// consumers exit cleanly with a valid prefix of the stream.
func TestReplayConsumerPanic(t *testing.T) { bothPaths(t, testReplayConsumerPanic) }

func testReplayConsumerPanic(t *testing.T) {
	tr := randomTrace(50000)
	bad := &panicky{n: 2}
	good1 := &collector{}
	good2 := &collector{}
	eng := sized(512, 2)

	var relayed *ConsumerPanic
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("Replay did not re-panic after consumer panic")
			}
			cp, ok := v.(*ConsumerPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *ConsumerPanic", v, v)
			}
			relayed = cp
		}()
		_ = eng.Replay(context.Background(), tr.Source(), good1, bad, good2)
	}()

	if relayed.Consumer != 1 {
		t.Errorf("panic attributed to consumer %d, want 1", relayed.Consumer)
	}
	if relayed.Val != "injected consumer failure" {
		t.Errorf("panic value = %v", relayed.Val)
	}
	if len(relayed.Stack) == 0 {
		t.Error("panic relay lost the consumer stack")
	}
	// Survivors completed cleanly on a sequential prefix.
	want := sequential(tr)
	sameAccesses(t, "survivor 1 prefix", want[:len(good1.got)], good1.got)
	sameAccesses(t, "survivor 2 prefix", want[:len(good2.got)], good2.got)
}
