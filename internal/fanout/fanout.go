// Package fanout implements single-pass trace replay across many
// consumers: one producer pulls chunks from a memtrace.Source and
// delivers each chunk to N independently-configured consumers. With two
// or more Ps each consumer runs on its own goroutine and the chunks are
// broadcast to it; with one P, or one consumer, the caller's goroutine
// hands each chunk to the consumers in turn.
//
// The classic trace-driven-simulation observation (Mattson et al., and
// the sweep shapes in Jouppi's figures) is that producing or decoding the
// address stream often costs as much as simulating one configuration, so
// replaying K configurations by regenerating the trace K times pays the
// production cost K times over. The fan-out engine pays it once: chunks
// are produced once, shared read-only, and every consumer walks them in
// order on its own cursor.
//
// Chunk buffers are pooled: each broadcast chunk carries a reference
// count, the last consumer to finish returns it to a sync.Pool, and the
// producer refills recycled buffers (bulk-decoding through
// memtrace.ChunkSource when the source supports it). Steady-state replay
// therefore allocates nothing per chunk regardless of trace length.
//
// Consumers see exactly the sequence of accesses a sequential replay
// would deliver — same records, same order, one at a time — so results
// are bit-identical to per-config replay (pinned by equivalence tests).
package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
)

// Errors reported by Replay before any record is consumed.
var (
	ErrNilConsumer = errors.New("fanout: nil Consumer")
)

// Consumer receives successive chunks of the trace in order. Chunks are
// shared read-only between all consumers of a replay and their buffers
// are recycled once every consumer is done with them: a Consumer must
// not modify or retain the slice beyond the Consume call.
type Consumer interface {
	Consume(chunk []memtrace.Access)
}

// Func adapts a per-access function (for example hierarchy.System.Access
// or any memtrace.Sink's method) to the Consumer interface.
type Func func(memtrace.Access)

// Consume applies the function to each access of the chunk in order.
func (f Func) Consume(chunk []memtrace.Access) {
	for _, a := range chunk {
		f(a)
	}
}

// Sink adapts a memtrace.Sink to a Consumer.
func Sink(s memtrace.Sink) Consumer { return Func(s.Access) }

// ConsumerPanic wraps a panic raised inside a consumer. The engine
// records the first one, stops producing, lets the surviving consumers
// drain their queued chunks (inline, none are queued), and then
// re-panics the wrapped value on the caller's goroutine. The experiment
// planner passes it on unchanged to the exhibit's own goroutine.
type ConsumerPanic struct {
	Consumer int    // index of the panicking consumer in the Replay call
	Val      any    // the recovered panic value
	Stack    []byte // stack of the consumer at panic time
}

// Error makes the relayed panic presentable when a recovering caller
// (such as the experiment shield) formats it as a failure.
func (p *ConsumerPanic) Error() string {
	return fmt.Sprintf("fanout: consumer %d panicked: %v", p.Consumer, p.Val)
}

// Config sizes the engine. The zero value selects the defaults.
type Config struct {
	// ChunkSize is the number of accesses per broadcast chunk.
	// Defaults to 4096 — the same granularity the streaming workload
	// source uses, large enough to amortise channel operations and
	// small enough to keep consumers' working sets cache-resident.
	ChunkSize int
	// Ring is the per-consumer bound on in-flight chunks (the depth of
	// each consumer's cursor behind the producer). The producer blocks
	// once the slowest consumer falls Ring chunks behind, so memory is
	// O(Consumers × Ring × ChunkSize) regardless of trace length.
	// Defaults to 8.
	Ring int
}

const (
	defaultChunkSize = 4096
	defaultRing      = 8
)

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = defaultChunkSize
	}
	if c.Ring <= 0 {
		c.Ring = defaultRing
	}
	return c
}

// Engine broadcasts one trace pass to many consumers. The zero value is
// usable; New applies defaults eagerly. An Engine is reusable across
// Replay calls but not concurrently.
type Engine struct {
	cfg Config
	reg *telemetry.Registry

	// Metrics are nil (and every operation a no-op) until
	// AttachTelemetry is called with a non-nil registry.
	chunks    *telemetry.Counter
	records   *telemetry.Counter
	consumers *telemetry.Gauge
	depth     *telemetry.Gauge
	lag       []*telemetry.Gauge
}

// New returns an engine with cfg's zero fields defaulted.
func New(cfg Config) *Engine { return &Engine{cfg: cfg.withDefaults()} }

// AttachTelemetry registers the engine's metrics on reg: counters for
// chunks and records broadcast, a gauge for the consumer count of the
// current replay, a gauge for the deepest per-consumer backlog observed
// at each broadcast, and one lag gauge per consumer slot. A nil registry
// detaches (every metric update becomes a no-op).
func (e *Engine) AttachTelemetry(reg *telemetry.Registry) {
	e.reg = reg
	e.lag = nil
	if reg == nil {
		e.chunks, e.records, e.consumers, e.depth = nil, nil, nil, nil
		return
	}
	e.chunks = reg.Counter("fanout_chunks_total", "trace chunks broadcast by the fan-out engine")
	e.records = reg.Counter("fanout_records_total", "trace records broadcast by the fan-out engine")
	e.consumers = reg.Gauge("fanout_consumers", "consumers attached to the current fan-out replay")
	e.depth = reg.Gauge("fanout_broadcast_depth", "deepest per-consumer chunk backlog at last broadcast")
}

// lagGauge returns the lag gauge for consumer slot i, creating it on
// first use. Lag is measured in chunks queued ahead of the consumer.
func (e *Engine) lagGauge(i int) *telemetry.Gauge {
	if e.reg == nil {
		return nil
	}
	for len(e.lag) <= i {
		e.lag = append(e.lag, e.reg.Gauge(
			fmt.Sprintf("fanout_consumer_lag_%d", len(e.lag)),
			fmt.Sprintf("chunk backlog of fan-out consumer %d", len(e.lag))))
	}
	return e.lag[i]
}

// Replay pulls every record from src exactly once and delivers it, in
// order, to every consumer. It returns ctx's error if the context is
// cancelled mid-stream (consumers may then have seen a prefix of the
// trace), and re-panics a *ConsumerPanic if any consumer panics. With a
// single consumer, or a single P to run goroutines on, the replay runs
// inline on the caller's goroutine; otherwise each consumer runs on its
// own goroutine.
func (e *Engine) Replay(ctx context.Context, src memtrace.Source, consumers ...Consumer) error {
	if src == nil {
		return memtrace.ErrNilSource
	}
	for _, c := range consumers {
		if c == nil {
			return ErrNilConsumer
		}
	}
	if e.consumers != nil {
		e.consumers.Set(int64(len(consumers)))
	}
	if len(consumers) == 0 {
		return nil
	}
	if len(consumers) == 1 || runtime.GOMAXPROCS(0) == 1 {
		return e.replayInline(ctx, src, consumers)
	}
	return e.replayFanout(ctx, src, consumers)
}

// chunkFiller returns the bulk-fill function for src: the source's own
// NextChunk when it implements memtrace.ChunkSource, otherwise a
// per-record fallback with the same contract (short fill only at end of
// stream).
func chunkFiller(src memtrace.Source) func(dst []memtrace.Access) int {
	if cs, ok := src.(memtrace.ChunkSource); ok {
		return cs.NextChunk
	}
	return func(dst []memtrace.Access) int { return memtrace.FillChunk(src, dst) }
}

// replayInline is the path with no goroutines and no channels: one
// reused chunk buffer, filled in bulk and handed to each consumer in
// turn, with a cancellation poll per chunk. It keeps the broadcast
// path's contracts: one consumer span each, a panic relayed as a
// *ConsumerPanic naming its consumer (every consumer then holds a prefix
// of the stream), and a lag gauge per slot, which reads 0 because no
// consumer ever falls behind.
func (e *Engine) replayInline(ctx context.Context, src memtrace.Source, consumers []Consumer) error {
	cfg := e.cfg.withDefaults()
	for i := range consumers {
		_, csp := trace.Start(ctx, "consumer", trace.Int("consumer", i))
		defer csp.End()
		e.lagGauge(i).Set(0)
	}
	e.depth.Set(0)
	fill := chunkFiller(src)
	buf := make([]memtrace.Access, cfg.ChunkSize)
	done := ctx.Done()
	for {
		n := fill(buf)
		if n == 0 {
			return nil
		}
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if p := consumeEach(consumers, buf[:n]); p != nil {
			panic(p)
		}
		e.countChunk(n)
		if n < cfg.ChunkSize {
			return nil // short fill: source exhausted
		}
	}
}

// consumeEach hands chunk to each consumer in turn. A panic stops the
// round and comes back as a *ConsumerPanic naming the consumer, with the
// stack it panicked on.
func consumeEach(consumers []Consumer, chunk []memtrace.Access) (relayed *ConsumerPanic) {
	i := 0
	defer func() {
		if v := recover(); v != nil {
			relayed = &ConsumerPanic{Consumer: i, Val: v, Stack: stack()}
		}
	}()
	for ; i < len(consumers); i++ {
		consumers[i].Consume(chunk)
	}
	return nil
}

// sharedChunk is one pooled broadcast buffer. refs counts the consumers
// still holding it; the one that decrements it to zero returns the chunk
// to the pool for the producer to refill.
type sharedChunk struct {
	buf  []memtrace.Access
	refs atomic.Int32
}

// release drops one reference, recycling the chunk when it was the last.
func (sc *sharedChunk) release(pool *sync.Pool) {
	if sc.refs.Add(-1) == 0 {
		pool.Put(sc)
	}
}

// replayFanout is the multi-consumer path. Each consumer gets a bounded
// channel of shared read-only chunks — the channel is the consumer's
// window of the chunk ring, its length the consumer's cursor lag. Chunk
// buffers are reference-counted and pooled: the producer refills a
// buffer only after the last consumer has released it, so a slow
// consumer never observes a chunk being rewritten and steady-state
// broadcasting allocates nothing.
func (e *Engine) replayFanout(ctx context.Context, src memtrace.Source, consumers []Consumer) error {
	cfg := e.cfg.withDefaults()
	chans := make([]chan *sharedChunk, len(consumers))
	for i := range chans {
		chans[i] = make(chan *sharedChunk, cfg.Ring)
	}
	pool := &sync.Pool{New: func() any {
		return &sharedChunk{buf: make([]memtrace.Access, cfg.ChunkSize)}
	}}

	// abort is closed by the first panicking consumer; panicOnce
	// guards the recorded ConsumerPanic. A panicking consumer drains
	// its own channel so the producer can never deadlock against it.
	abort := make(chan struct{})
	var panicOnce sync.Once
	var relayed *ConsumerPanic

	var wg sync.WaitGroup
	wg.Add(len(consumers))
	for i, c := range consumers {
		go func(i int, c Consumer, ch chan *sharedChunk) {
			defer wg.Done()
			// Each consumer goroutine is one span: N configurations
			// replaying concurrently close N sibling spans from N
			// goroutines, which is exactly what the span system's
			// concurrency contract covers. Detached (no span in ctx)
			// this is a single context lookup per replay.
			_, csp := trace.Start(ctx, "consumer", trace.Int("consumer", i))
			defer csp.End()
			defer func() {
				if v := recover(); v != nil {
					panicOnce.Do(func() {
						relayed = &ConsumerPanic{Consumer: i, Val: v, Stack: stack()}
						close(abort)
					})
					// Keep draining (and releasing) so the producer's
					// send to this channel cannot block while it reacts
					// to abort.
					for sc := range ch {
						sc.release(pool)
					}
				}
			}()
			for sc := range ch {
				c.Consume(sc.buf)
				sc.release(pool)
			}
		}(i, c, chans[i])
	}

	closeAll := func() {
		for _, ch := range chans {
			close(ch)
		}
	}

	err := e.produce(ctx, src, chans, pool, abort, cfg)
	closeAll()
	wg.Wait()
	if relayed != nil {
		panic(relayed)
	}
	return err
}

// produce fills pooled chunks from src and broadcasts each to every
// consumer channel, blocking (backpressure) when a consumer's window is
// full. It stops on source exhaustion, context cancellation, or abort.
func (e *Engine) produce(ctx context.Context, src memtrace.Source,
	chans []chan *sharedChunk, pool *sync.Pool, abort <-chan struct{}, cfg Config) error {
	done := ctx.Done()
	fill := chunkFiller(src)
	for {
		sc := pool.Get().(*sharedChunk)
		buf := sc.buf[:cfg.ChunkSize]
		n := fill(buf)
		if n == 0 {
			pool.Put(sc)
			return nil
		}
		sc.buf = buf[:n]
		// Chunks abandoned mid-broadcast (abort/cancel) keep a positive
		// refcount and simply fall to the garbage collector.
		sc.refs.Store(int32(len(chans)))
		e.observeDepth(chans)
		for _, ch := range chans {
			select {
			case ch <- sc:
			case <-abort:
				return nil // the relayed panic carries the failure
			case <-done:
				return ctx.Err()
			}
		}
		e.countChunk(n)
		if n < cfg.ChunkSize {
			return nil // short fill: source exhausted
		}
	}
}

// countChunk advances the broadcast counters (no-ops when detached).
func (e *Engine) countChunk(records int) {
	e.chunks.Inc()
	e.records.Add(uint64(records))
}

// observeDepth records each consumer's current backlog and the maximum
// across consumers. Skipped entirely when telemetry is detached.
func (e *Engine) observeDepth(chans []chan *sharedChunk) {
	if e.reg == nil {
		return
	}
	max := 0
	for i, ch := range chans {
		n := len(ch)
		if n > max {
			max = n
		}
		e.lagGauge(i).Set(int64(n))
	}
	e.depth.Set(int64(max))
}

// stack captures the current goroutine's stack for panic relay.
func stack() []byte {
	buf := make([]byte, 64<<10)
	return buf[:runtime.Stack(buf, false)]
}

// Replay runs a single-pass broadcast with the default configuration.
func Replay(ctx context.Context, src memtrace.Source, consumers ...Consumer) error {
	return New(Config{}).Replay(ctx, src, consumers...)
}
