// Package memtrace defines the memory-reference trace representation used
// throughout the simulator: single accesses, packed in-memory traces, trace
// statistics, and a binary on-disk format.
//
// A trace is an ordered sequence of Access values. Each access is either an
// instruction fetch or a data load/store to a byte address in a flat
// simulated address space. Traces are the interface between the workload
// generators (which produce them) and the cache simulators (which consume
// them); they correspond to the address traces driving the paper's
// trace-driven simulation methodology.
package memtrace

import "fmt"

// Kind identifies the type of a memory access.
type Kind uint8

// The three access kinds. Ifetch references go to the instruction cache;
// Load and Store go to the data cache.
const (
	Ifetch Kind = iota
	Load
	Store

	numKinds = 3
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Ifetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsData reports whether the access kind references the data cache.
func (k Kind) IsData() bool { return k == Load || k == Store }

// Addr is a byte address in the simulated flat address space.
// Addresses must fit in 62 bits so that a Kind can be packed alongside;
// MaxAddr is the largest representable address.
type Addr uint64

// MaxAddr is the largest address the packed trace representation can
// carry: 2^62 − 1. Appending an access beyond it panics rather than
// silently truncating the address (and, with it, corrupting round-trips).
const MaxAddr Addr = 1<<kindShift - 1

// Access is a single memory reference.
type Access struct {
	Addr Addr
	Kind Kind
}

// String renders the access as "kind 0xaddr".
func (a Access) String() string { return fmt.Sprintf("%s 0x%x", a.Kind, uint64(a.Addr)) }

// record packs an Access into 8 bytes: the kind occupies the top two bits,
// the address the remaining 62. This keeps large in-memory traces compact
// (8 bytes per reference).
type record uint64

const (
	kindShift = 62
	addrMask  = record(1)<<kindShift - 1
)

func pack(a Access) record {
	if a.Addr > MaxAddr {
		panic(fmt.Sprintf("memtrace: address 0x%x exceeds the 62-bit packed range (MaxAddr 0x%x)",
			uint64(a.Addr), uint64(MaxAddr)))
	}
	if a.Kind >= numKinds {
		panic(fmt.Sprintf("memtrace: invalid access kind %d", uint8(a.Kind)))
	}
	return record(a.Addr)&addrMask | record(a.Kind)<<kindShift
}

func (r record) unpack() Access {
	return Access{Addr: Addr(r & addrMask), Kind: Kind(r >> kindShift)}
}

// Trace is an in-memory sequence of accesses with per-kind counts.
// The zero value is an empty trace ready for use.
type Trace struct {
	recs   []record
	counts [numKinds]uint64
}

// NewTrace returns an empty trace with capacity for n accesses.
func NewTrace(n int) *Trace {
	return &Trace{recs: make([]record, 0, n)}
}

// Append adds one access to the end of the trace. It panics if a.Addr
// exceeds MaxAddr or a.Kind is invalid — the packed 8-byte representation
// cannot carry them, and truncating silently would corrupt round-trips.
func (t *Trace) Append(a Access) {
	t.recs = append(t.recs, pack(a))
	t.counts[a.Kind]++
}

// Len returns the number of accesses in the trace.
func (t *Trace) Len() int { return len(t.recs) }

// At returns the i'th access. It panics if i is out of range.
func (t *Trace) At(i int) Access { return t.recs[i].unpack() }

// Instructions returns the number of instruction-fetch accesses, which the
// performance model treats as the dynamic instruction count.
func (t *Trace) Instructions() uint64 { return t.counts[Ifetch] }

// Loads returns the number of load accesses.
func (t *Trace) Loads() uint64 { return t.counts[Load] }

// Stores returns the number of store accesses.
func (t *Trace) Stores() uint64 { return t.counts[Store] }

// DataRefs returns the number of data (load + store) accesses.
func (t *Trace) DataRefs() uint64 { return t.counts[Load] + t.counts[Store] }

// Count returns the number of accesses of kind k.
func (t *Trace) Count(k Kind) uint64 { return t.counts[k] }

// Each calls fn for every access in order. It is the bulk consumption path
// used by the simulators; unpacking is done inline to keep the loop tight.
func (t *Trace) Each(fn func(Access)) {
	for _, r := range t.recs {
		fn(r.unpack())
	}
}

// Slice returns a view of accesses in [lo, hi) as a fresh Trace sharing no
// storage with t. It panics if the range is invalid.
func (t *Trace) Slice(lo, hi int) *Trace {
	out := NewTrace(hi - lo)
	for _, r := range t.recs[lo:hi] {
		out.Append(r.unpack())
	}
	return out
}

// Sink consumes a stream of accesses. Cache simulators and trace writers
// implement Sink; workload generators drive one.
type Sink interface {
	Access(a Access)
}

// Access implements Sink, so a *Trace can be used directly as the target of
// a workload generator.
func (t *Trace) Access(a Access) { t.Append(a) }

// Tee returns a Sink that forwards every access to each of sinks in order.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (ts teeSink) Access(a Access) {
	for _, s := range ts {
		s.Access(a)
	}
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Access)

// Access calls f(a).
func (f SinkFunc) Access(a Access) { f(a) }
