package core

import (
	"fmt"

	"jouppi/internal/cache"
)

// WriteBuffer models the coalescing write buffer a write-through
// first-level cache needs in front of the second level (§2: stores occur
// about every 6–7 instructions, so without buffering an unpipelined L2
// stalls the processor on store traffic). Entries hold line addresses;
// stores to a line already queued coalesce for free; the buffer drains one
// entry every DrainInterval cycles into the next level. A store arriving
// at a full buffer stalls until a slot drains; a load miss to a line
// still queued pays a one-cycle forward/flush check.
type WriteBuffer struct {
	entries  []uint64
	capacity int
	interval uint64

	lastDrain uint64

	// counters
	Stores     uint64 // stores presented
	Coalesced  uint64 // stores merged into a queued entry
	FullStalls uint64 // cycles stalled waiting for a slot
	Forwards   uint64 // load misses that matched a queued line
	Drained    uint64 // entries written to the next level
}

// NewWriteBuffer builds a buffer with the given entry count and drain
// interval in cycles (the next level's write-port occupancy).
func NewWriteBuffer(entries int, drainInterval int) *WriteBuffer {
	if entries <= 0 {
		panic(fmt.Sprintf("core: write buffer needs at least one entry, got %d", entries))
	}
	if drainInterval <= 0 {
		panic(fmt.Sprintf("core: non-positive drain interval %d", drainInterval))
	}
	return &WriteBuffer{
		entries:  make([]uint64, 0, entries),
		capacity: entries,
		interval: uint64(drainInterval),
	}
}

// drain retires entries that completed by time now.
func (w *WriteBuffer) drain(now uint64) {
	for len(w.entries) > 0 && now >= w.lastDrain+w.interval {
		w.lastDrain += w.interval
		w.entries = w.entries[1:]
		w.Drained++
	}
	if len(w.entries) == 0 && w.lastDrain < now {
		// An idle drain port restarts its occupancy clock on the next
		// enqueue, not in the past.
		w.lastDrain = now
	}
}

// Store presents a write-through store of lineAddr at time now and
// returns the stall cycles it causes (0 unless the buffer is full).
func (w *WriteBuffer) Store(lineAddr uint64, now uint64) int {
	w.Stores++
	w.drain(now)
	for _, la := range w.entries {
		if la == lineAddr {
			w.Coalesced++
			return 0
		}
	}
	stall := 0
	if len(w.entries) >= w.capacity {
		// Wait for the oldest entry to finish draining.
		wait := w.lastDrain + w.interval - now
		stall = int(wait)
		w.FullStalls += wait
		w.drain(now + wait)
	}
	w.entries = append(w.entries, lineAddr)
	return stall
}

// CheckLoad reports whether a load miss to lineAddr at time now hits a
// queued (not yet drained) store, which costs a forward/flush cycle.
func (w *WriteBuffer) CheckLoad(lineAddr uint64, now uint64) bool {
	w.drain(now)
	for _, la := range w.entries {
		if la == lineAddr {
			w.Forwards++
			return true
		}
	}
	return false
}

// Pending returns the number of queued entries at time now.
func (w *WriteBuffer) Pending(now uint64) int {
	w.drain(now)
	return len(w.entries)
}

// WithWriteBuffer decorates a data-side front-end with a write buffer:
// every store additionally flows through the buffer toward the next
// level, and load misses check it. Stall accounting is added on top of
// the inner front-end's.
type WithWriteBuffer struct {
	inner FrontEnd
	wb    *WriteBuffer
	now   uint64
	extra uint64 // extra stall cycles from the buffer
}

// NewWithWriteBuffer wraps inner (typically a write-through baseline or
// victim-cache front-end) with wb.
func NewWithWriteBuffer(inner FrontEnd, wb *WriteBuffer) *WithWriteBuffer {
	return &WithWriteBuffer{inner: inner, wb: wb}
}

// Access implements FrontEnd.
func (f *WithWriteBuffer) Access(addr uint64, write bool) Result {
	f.now++
	r := f.inner.Access(addr, write)
	f.now += uint64(r.Stall)
	la := f.inner.Cache().LineAddr(addr)
	if write {
		if stall := f.wb.Store(la, f.now); stall > 0 {
			r.Stall += stall
			f.now += uint64(stall)
			f.extra += uint64(stall)
		}
	} else if r.FullMiss() && f.wb.CheckLoad(la, f.now) {
		r.Stall++
		f.now++
		f.extra++
	}
	return r
}

// Stats implements FrontEnd: the inner stats with the buffer's stalls
// added to StallCycles.
func (f *WithWriteBuffer) Stats() Stats {
	st := f.inner.Stats()
	st.StallCycles += f.extra
	return st
}

// Cache implements FrontEnd.
func (f *WithWriteBuffer) Cache() *cache.Cache { return f.inner.Cache() }

// Name implements FrontEnd.
func (f *WithWriteBuffer) Name() string {
	return fmt.Sprintf("%s+wb%d", f.inner.Name(), f.wb.capacity)
}

// Buffer exposes the underlying write buffer's counters.
func (f *WithWriteBuffer) Buffer() *WriteBuffer { return f.wb }

var _ FrontEnd = (*WithWriteBuffer)(nil)
