// Package fanout implements single-pass trace replay across many
// consumers: one producer makes the trace once, in chunks, and delivers
// each chunk to N independently-configured consumers. The producer either
// pulls the chunks from a memtrace.Source (Replay) or is a generator that
// pushes accesses into a sink on the caller's goroutine (Generate). With
// two or more Ps each consumer runs on its own goroutine and the chunks
// are broadcast to it; with one P, or one consumer, the caller's
// goroutine hands each chunk to the consumers in turn, so a replay at one
// P starts no goroutine at all.
//
// The classic trace-driven-simulation observation (Mattson et al., and
// the sweep shapes in Jouppi's figures) is that producing or decoding the
// address stream often costs as much as simulating one configuration, so
// replaying K configurations by regenerating the trace K times pays the
// production cost K times over. The fan-out engine pays it once: chunks
// are produced once, shared read-only, and every consumer walks them in
// order on its own cursor.
//
// Chunk buffers are reused: inline, one buffer serves the whole replay;
// broadcast, each chunk carries a reference count, the last consumer to
// finish returns it to a free list, and the producer refills recycled
// buffers (bulk-decoding through memtrace.ChunkSource when the source
// supports it). Steady-state replay therefore allocates nothing per chunk
// regardless of trace length.
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

// ErrNilConsumer is reported by Replay and Generate before any record
// is consumed.
var ErrNilConsumer = errors.New("fanout: nil Consumer")

// errAborted ends a delivery after a consumer panicked; the relayed
// *ConsumerPanic carries the failure.
var errAborted = errors.New("fanout: consumer panicked")

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

const (
	// chunkSize is the number of accesses per chunk: large enough to
	// amortise channel operations and small enough to keep consumers'
	// working sets cache-resident.
	chunkSize = 4096
	// ringSize bounds each broadcast consumer's in-flight chunks (its
	// cursor's lag behind the producer). The producer blocks once the
	// slowest consumer falls that far behind, so memory is
	// O(consumers × ringSize × chunkSize) regardless of trace length.
	ringSize = 8
)

// Engine replays one trace pass to many consumers. Build it with New. An
// Engine is reusable across replays but not concurrently.
type Engine struct {
	// chunk and ring are chunkSize and ringSize; tests shrink them.
	chunk, ring int

	reg *telemetry.Registry
	// Metrics are nil (and every operation a no-op) until
	// AttachTelemetry is called with a non-nil registry.
	chunks    *telemetry.Counter
	records   *telemetry.Counter
	consumers *telemetry.Gauge
	depth     *telemetry.Gauge
	lag       []*telemetry.Gauge
}

// New returns an engine.
func New() *Engine { return &Engine{chunk: chunkSize, ring: ringSize} }

// AttachTelemetry registers the engine's metrics on reg: counters for
// chunks and records delivered, a gauge for the consumer count of the
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
	d, err := e.start(ctx, consumers)
	if d == nil {
		return err
	}
	defer d.finish()
	fill := chunkFiller(src)
	for {
		n := fill(d.next())
		if n == 0 {
			return nil
		}
		if err := d.send(n); err != nil {
			return err
		}
		if n < e.chunk {
			return nil // short fill: source exhausted
		}
	}
}

// Generate runs gen once on the caller's goroutine and delivers every
// access it pushes into its sink to every consumer, with Replay's
// contracts. A cancel or a consumer panic unwinds gen with a sentinel
// panic that Generate recovers, so gen must not recover panics itself.
// A panic of gen's own is re-panicked once every consumer has stopped.
func (e *Engine) Generate(ctx context.Context, gen func(memtrace.Sink), consumers ...Consumer) (err error) {
	d, err := e.start(ctx, consumers)
	if d == nil {
		return err
	}
	s := &pushSink{d: d, buf: d.next()}
	defer func() {
		v := recover()
		if _, stopped := v.(stopGenerator); stopped {
			v, err = nil, s.err
		}
		d.finish()
		if v != nil {
			panic(v)
		}
	}()
	gen(s)
	if s.n > 0 {
		s.flush()
	}
	return nil
}

// stopGenerator is the sentinel panic that unwinds a generator once its
// delivery has stopped.
type stopGenerator struct{}

// pushSink fills the delivery's current chunk and sends it when full.
type pushSink struct {
	d   *delivery
	buf []memtrace.Access
	n   int
	err error // why the delivery stopped
}

// Access implements memtrace.Sink.
func (s *pushSink) Access(a memtrace.Access) {
	s.buf[s.n] = a
	s.n++
	if s.n == len(s.buf) {
		s.flush()
	}
}

// flush sends the buffered accesses and starts the next chunk; when the
// delivery stops it unwinds the generator.
func (s *pushSink) flush() {
	if s.err = s.d.send(s.n); s.err != nil {
		panic(stopGenerator{})
	}
	s.buf, s.n = s.d.next(), 0
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

// delivery is one replay's chunk hand-off, shared by both producers: next
// returns the buffer to fill and send delivers its first n accesses.
// Inline (one consumer or one P), one reused buffer is handed to each
// consumer in turn on the caller's goroutine, and each lag gauge reads 0.
// Broadcast, each consumer has a goroutine and a bounded channel of
// shared read-only chunks, whose length is the consumer's lag. A chunk
// is recycled only after its last consumer has released it, so a slow
// consumer never observes a chunk being rewritten.
type delivery struct {
	e         *Engine
	ctx       context.Context
	consumers []Consumer
	// relayed is the first consumer panic, re-panicked by finish.
	relayed *ConsumerPanic

	// Inline.
	buf   []memtrace.Access
	spans []*trace.Span

	// Broadcast. abort is closed by the first panicking consumer, under
	// panicOnce.
	chans []chan *sharedChunk
	// free holds released chunks for refilling. At most ring chunks
	// wait in the slowest consumer's channel, one is in its Consume and
	// one is being filled, so ring+2 slots never drop a chunk.
	free      chan *sharedChunk
	cur       *sharedChunk
	abort     chan struct{}
	panicOnce sync.Once
	wg        sync.WaitGroup
}

// start checks the consumers and begins a delivery to them; with none,
// or a nil one, it returns no delivery and the error to report.
func (e *Engine) start(ctx context.Context, consumers []Consumer) (*delivery, error) {
	for _, c := range consumers {
		if c == nil {
			return nil, ErrNilConsumer
		}
	}
	if e.consumers != nil {
		e.consumers.Set(int64(len(consumers)))
	}
	if len(consumers) == 0 {
		return nil, nil
	}
	d := &delivery{e: e, ctx: ctx, consumers: consumers}
	if len(consumers) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := range consumers {
			_, sp := trace.Start(ctx, "consumer", trace.Int("consumer", i))
			d.spans = append(d.spans, sp)
			e.lagGauge(i).Set(0)
		}
		e.depth.Set(0)
		d.buf = make([]memtrace.Access, e.chunk)
		return d, nil
	}
	d.chans = make([]chan *sharedChunk, len(consumers))
	for i := range d.chans {
		d.chans[i] = make(chan *sharedChunk, e.ring)
	}
	d.free = make(chan *sharedChunk, e.ring+2)
	d.abort = make(chan struct{})
	d.wg.Add(len(consumers))
	for i, c := range consumers {
		go d.consume(i, c, d.chans[i])
	}
	return d, nil
}

// consume is broadcast consumer i's goroutine, and its span. A
// panicking consumer keeps draining its own channel so the producer can
// never deadlock against it.
func (d *delivery) consume(i int, c Consumer, ch chan *sharedChunk) {
	defer d.wg.Done()
	_, csp := trace.Start(d.ctx, "consumer", trace.Int("consumer", i))
	defer csp.End()
	defer func() {
		if v := recover(); v != nil {
			d.panicOnce.Do(func() {
				d.relayed = &ConsumerPanic{Consumer: i, Val: v, Stack: stack()}
				close(d.abort)
			})
			for sc := range ch {
				sc.release(d.free)
			}
		}
	}()
	for sc := range ch {
		c.Consume(sc.buf)
		sc.release(d.free)
	}
}

// next returns the buffer the producer fills next, chunk accesses long.
func (d *delivery) next() []memtrace.Access {
	if d.chans == nil {
		return d.buf
	}
	select {
	case d.cur = <-d.free:
	default:
		d.cur = &sharedChunk{buf: make([]memtrace.Access, d.e.chunk)}
	}
	return d.cur.buf[:d.e.chunk]
}

// send delivers the first n accesses of the buffer next returned. It
// polls ctx once, and returns its error if the context is done, or
// errAborted once a consumer has panicked.
func (d *delivery) send(n int) error {
	done := d.ctx.Done()
	if d.chans == nil {
		if done != nil {
			select {
			case <-done:
				return d.ctx.Err()
			default:
			}
		}
		if d.relayed = consumeEach(d.consumers, d.buf[:n]); d.relayed != nil {
			return errAborted
		}
		d.e.countChunk(n)
		return nil
	}
	sc := d.cur
	sc.buf = sc.buf[:n]
	// Chunks abandoned mid-broadcast (abort/cancel) keep a positive
	// refcount and simply fall to the garbage collector.
	sc.refs.Store(int32(len(d.chans)))
	d.e.observeDepth(d.chans)
	for _, ch := range d.chans {
		select {
		case ch <- sc:
		case <-d.abort:
			return errAborted
		case <-done:
			return d.ctx.Err()
		}
	}
	d.e.countChunk(n)
	return nil
}

// finish ends the delivery on every exit: it ends the inline consumer
// spans or closes the channels and waits for the consumer goroutines,
// then re-panics a relayed consumer panic.
func (d *delivery) finish() {
	for _, sp := range d.spans {
		sp.End()
	}
	for _, ch := range d.chans {
		close(ch)
	}
	d.wg.Wait()
	if d.relayed != nil {
		panic(d.relayed)
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

// sharedChunk is one recycled broadcast buffer. refs counts the
// consumers still holding it; the one that decrements it to zero returns
// the chunk to the free list for the producer to refill.
type sharedChunk struct {
	buf  []memtrace.Access
	refs atomic.Int32
}

// release drops one reference, recycling the chunk when it was the last.
func (sc *sharedChunk) release(free chan<- *sharedChunk) {
	if sc.refs.Add(-1) == 0 {
		select {
		case free <- sc:
		default:
		}
	}
}

// countChunk advances the delivery counters (no-ops when detached).
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

// Replay runs a single-pass replay on a new engine.
func Replay(ctx context.Context, src memtrace.Source, consumers ...Consumer) error {
	return New().Replay(ctx, src, consumers...)
}

// Generate runs a single-pass generated replay on a new engine.
func Generate(ctx context.Context, gen func(memtrace.Sink), consumers ...Consumer) error {
	return New().Generate(ctx, gen, consumers...)
}
