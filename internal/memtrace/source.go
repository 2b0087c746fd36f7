package memtrace

import "errors"

// ErrNilSource and ErrNilSink report a streaming call handed a nil
// endpoint. Each, Drain and NewCountingSource panic with these values so
// the failure names the actual mistake instead of surfacing as an
// anonymous nil-pointer dereference deep in a drain loop; the fan-out
// engine returns ErrNilSource as an ordinary error.
var (
	ErrNilSource = errors.New("memtrace: nil Source")
	ErrNilSink   = errors.New("memtrace: nil Sink")
)

// Source is a pull-based stream of accesses — the streaming counterpart of
// Sink. Consumers call Next until it reports ok == false; after that every
// further call must keep returning ok == false. Sources are single-use and
// not safe for concurrent use; obtain a fresh Source per replay.
//
// Source is the interface the simulators consume, so replay memory stays
// O(1) in trace length: a *Trace cursor, the binary and dinero file
// readers, and live workload generators all implement it.
type Source interface {
	Next() (Access, bool)
}

// ChunkSource is an optional bulk-decode extension of Source: NextChunk
// fills dst from the stream and returns how many records it delivered.
// It returns fewer than len(dst) only when the stream is exhausted (or
// failed — check the source's Err as usual), so 0 means end of stream.
// Bulk consumers (the fan-out engine) fill reusable buffers through this
// interface, skipping the per-record interface dispatch of Next and
// keeping steady-state replay allocation-free.
type ChunkSource interface {
	Source
	NextChunk(dst []Access) int
}

// FillChunk fills dst from src via plain Next calls — the fallback bulk
// path for sources without a native NextChunk. It obeys the ChunkSource
// contract.
func FillChunk(src Source, dst []Access) int {
	n := 0
	for n < len(dst) {
		a, ok := src.Next()
		if !ok {
			break
		}
		dst[n] = a
		n++
	}
	return n
}

// Each pulls src dry, calling fn for every access in order. It is the bulk
// consumption path shared by the simulators and analyses. A nil src
// panics with ErrNilSource.
func Each(src Source, fn func(Access)) {
	if src == nil {
		panic(ErrNilSource)
	}
	for {
		a, ok := src.Next()
		if !ok {
			return
		}
		fn(a)
	}
}

// Drain pulls src dry, pushing every access into sink. It bridges the
// pull-based Source world into the push-based Sink world (trace writers,
// in-memory traces). A nil src or sink panics with ErrNilSource or
// ErrNilSink.
func Drain(src Source, sink Sink) {
	if src == nil {
		panic(ErrNilSource)
	}
	if sink == nil {
		panic(ErrNilSink)
	}
	for {
		a, ok := src.Next()
		if !ok {
			return
		}
		sink.Access(a)
	}
}

// Cursor is a Source iterating over an in-memory Trace. The trace must not
// be appended to while the cursor is live.
type Cursor struct {
	t *Trace
	i int
}

// Source returns a fresh cursor positioned at the start of the trace.
// Multiple cursors over one trace are independent, so concurrent replays
// of a shared read-only trace each take their own.
func (t *Trace) Source() *Cursor { return &Cursor{t: t} }

// Next implements Source.
func (c *Cursor) Next() (Access, bool) {
	if c.i >= len(c.t.recs) {
		return Access{}, false
	}
	a := c.t.recs[c.i].unpack()
	c.i++
	return a, true
}

// NextChunk implements ChunkSource by unpacking records straight into
// dst.
func (c *Cursor) NextChunk(dst []Access) int {
	n := 0
	for n < len(dst) && c.i < len(c.t.recs) {
		dst[n] = c.t.recs[c.i].unpack()
		c.i++
		n++
	}
	return n
}

// Remaining returns how many accesses the cursor has yet to deliver.
func (c *Cursor) Remaining() int { return len(c.t.recs) - c.i }

var _ ChunkSource = (*Cursor)(nil)

// kindFilter is the ChunkSource FilterKinds returns.
type kindFilter struct {
	src ChunkSource
	// take is 1 for a kept kind and 0 otherwise. Indexed by the Kind's
	// byte, it needs no bounds check, and any other kind is dropped.
	take [256]uint8
}

// FilterKinds returns a ChunkSource over the accesses of src whose Kind
// is one of kinds: one side of the trace, picked out once before a replay
// fans it out, so no consumer tests a reference's kind. It reads nothing
// but records, so src's Err and Degradation are read from src as before.
// A nil src panics with ErrNilSource.
func FilterKinds(src ChunkSource, kinds ...Kind) ChunkSource {
	if src == nil {
		panic(ErrNilSource)
	}
	f := &kindFilter{src: src}
	for _, k := range kinds {
		f.take[k] = 1
	}
	return f
}

// Next implements Source.
func (f *kindFilter) Next() (Access, bool) {
	for {
		a, ok := f.src.Next()
		if !ok || f.take[a.Kind] == 1 {
			return a, ok
		}
	}
}

// NextChunk implements ChunkSource. It fills dst from the wrapped source
// and compacts the kept accesses to its front in place, without a branch
// on the kind, refilling the rest until dst is full or the wrapped source
// ends, so it fills short only at end of stream.
func (f *kindFilter) NextChunk(dst []Access) int {
	w := 0
	for w < len(dst) {
		want := len(dst) - w
		n := f.src.NextChunk(dst[w:])
		for _, a := range dst[w : w+n] {
			dst[w] = a
			w += int(f.take[a.Kind])
		}
		if n < want {
			break
		}
	}
	return w
}

// Counts tallies accesses per kind as they stream past.
type Counts struct {
	counts [numKinds]uint64
}

// Observe records one access.
func (c *Counts) Observe(a Access) {
	if a.Kind < numKinds {
		c.counts[a.Kind]++
	}
}

// Instructions returns the ifetch count — the dynamic instruction count
// under the paper's convention.
func (c *Counts) Instructions() uint64 { return c.counts[Ifetch] }

// Loads returns the load count.
func (c *Counts) Loads() uint64 { return c.counts[Load] }

// Stores returns the store count.
func (c *Counts) Stores() uint64 { return c.counts[Store] }

// Total returns the total access count.
func (c *Counts) Total() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// CountingSource wraps a Source and tallies what flows through it, so a
// streaming replay can recover instruction counts without materializing
// the trace.
type CountingSource struct {
	Src Source
	Counts
}

// NewCountingSource wraps src. A nil src panics with ErrNilSource.
func NewCountingSource(src Source) *CountingSource {
	if src == nil {
		panic(ErrNilSource)
	}
	return &CountingSource{Src: src}
}

// Next implements Source.
func (cs *CountingSource) Next() (Access, bool) {
	a, ok := cs.Src.Next()
	if ok {
		cs.Observe(a)
	}
	return a, ok
}

// NextChunk implements ChunkSource, delegating to the wrapped source's
// bulk path when it has one and tallying every delivered record.
func (cs *CountingSource) NextChunk(dst []Access) int {
	var n int
	if b, ok := cs.Src.(ChunkSource); ok {
		n = b.NextChunk(dst)
	} else {
		n = FillChunk(cs.Src, dst)
	}
	for _, a := range dst[:n] {
		cs.Observe(a)
	}
	return n
}

var _ ChunkSource = (*CountingSource)(nil)
