// Package classify implements the 3C miss classification the paper uses
// (after Hill): every miss of a cache under study is labelled
//
//   - compulsory — the first reference to the line anywhere in the run,
//   - conflict   — a non-compulsory miss that would have hit in a
//     fully-associative LRU cache of the same capacity and line size,
//   - capacity   — everything else (the fully-associative cache missed
//     too, but the line had been seen before).
//
// The classifier maintains two shadow structures alongside the cache under
// study: a fully-associative LRU cache of equal capacity (implemented as a
// hash map plus intrusive doubly-linked list so large capacities stay
// O(1) per access) and the set of line addresses ever referenced.
//
// Coherence misses (the paper's fourth class) do not arise in this
// uniprocessor simulator.
package classify

import (
	"fmt"
	"math/bits"

	"jouppi/internal/telemetry"
)

// Class labels a cache miss.
type Class uint8

// The miss classes.
const (
	Compulsory Class = iota
	Capacity
	Conflict

	numClasses = 3
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Compulsory:
		return "compulsory"
	case Capacity:
		return "capacity"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Counts accumulates per-class miss totals.
type Counts struct {
	Compulsory uint64
	Capacity   uint64
	Conflict   uint64
}

// Total returns the sum over all classes.
func (c Counts) Total() uint64 { return c.Compulsory + c.Capacity + c.Conflict }

// Of returns the count for a single class.
func (c Counts) Of(cl Class) uint64 {
	switch cl {
	case Compulsory:
		return c.Compulsory
	case Capacity:
		return c.Capacity
	default:
		return c.Conflict
	}
}

// add increments the count for cl.
func (c *Counts) add(cl Class) {
	switch cl {
	case Compulsory:
		c.Compulsory++
	case Capacity:
		c.Capacity++
	default:
		c.Conflict++
	}
}

// faNode is an entry in the shadow fully-associative LRU cache.
type faNode struct {
	lineAddr   uint64
	prev, next *faNode
}

// Classifier tracks the shadow state for one cache under study.
// It is not safe for concurrent use.
type Classifier struct {
	lineShift uint
	capacity  int // lines
	nodes     map[uint64]*faNode
	head      *faNode // most recently used
	tail      *faNode // least recently used
	seen      map[uint64]struct{}
	counts    Counts
	free      []faNode // preallocated node pool
	nextFree  int

	telCompulsory *telemetry.Counter
	telCapacity   *telemetry.Counter
	telConflict   *telemetry.Counter
	telLast       Counts // per-class totals already published
	telPending    int    // ObserveMiss calls since the last telemetry flush
}

// telFlushEvery bounds how stale the live per-class counters can be: the
// classifier's internal Counts are the only thing the classification fast
// path updates, and their delta since the previous flush is published
// after this many observations, and again at Counts/Flush.
const telFlushEvery = 4096

// New creates a classifier shadowing a cache of size bytes with lineSize-
// byte lines. Both must be positive powers of two with lineSize ≤ size.
func New(size, lineSize int) (*Classifier, error) {
	if size <= 0 || bits.OnesCount(uint(size)) != 1 {
		return nil, fmt.Errorf("classify: size %d is not a positive power of two", size)
	}
	if lineSize <= 0 || bits.OnesCount(uint(lineSize)) != 1 || lineSize > size {
		return nil, fmt.Errorf("classify: line size %d invalid for size %d", lineSize, size)
	}
	capacity := size / lineSize
	return &Classifier{
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		capacity:  capacity,
		nodes:     make(map[uint64]*faNode, capacity*2),
		seen:      make(map[uint64]struct{}, 1<<12),
		free:      make([]faNode, capacity),
	}, nil
}

// MustNew is New but panics on invalid parameters.
func MustNew(size, lineSize int) *Classifier {
	c, err := New(size, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// Observe processes one access to addr and returns how a miss at this
// point would be classified. Callers invoke Observe for every access to
// the cache under study (hits included, so the shadow LRU state tracks the
// full reference stream) and record the returned class only when the cache
// under study actually missed.
func (c *Classifier) Observe(addr uint64) Class {
	la := addr >> c.lineShift

	_, seenBefore := c.seen[la]
	if !seenBefore {
		c.seen[la] = struct{}{}
	}

	faHit := c.touch(la)

	switch {
	case !seenBefore:
		return Compulsory
	case faHit:
		return Conflict
	default:
		return Capacity
	}
}

// Class returns the class Observe would give a miss to addr now,
// without observing it: a read-only peek at the shadow state.
func (c *Classifier) Class(addr uint64) Class {
	la := addr >> c.lineShift
	if _, ok := c.seen[la]; !ok {
		return Compulsory
	}
	if _, ok := c.nodes[la]; ok {
		return Conflict
	}
	return Capacity
}

// Instrument attaches live per-class miss counters, fed by publishing
// the delta of the internal Counts at flush time. Any counter may be nil
// (that class is simply not exported). Flushes happen every
// telFlushEvery observations and at Counts/Flush, so the classification
// fast path carries no telemetry code at all. A fresh attachment counts
// misses from attach time forward. Attach before replay begins.
func (c *Classifier) Instrument(compulsory, capacity, conflict *telemetry.Counter) {
	c.Flush()
	c.telCompulsory = compulsory
	c.telCapacity = capacity
	c.telConflict = conflict
	c.telLast = c.counts
}

// Flush publishes the per-class miss deltas since the previous flush.
func (c *Classifier) Flush() {
	c.telCompulsory.Add(c.counts.Compulsory - c.telLast.Compulsory)
	c.telCapacity.Add(c.counts.Capacity - c.telLast.Capacity)
	c.telConflict.Add(c.counts.Conflict - c.telLast.Conflict)
	c.telLast = c.counts
	c.telPending = 0
}

// ObserveMiss is Observe plus recording: it updates the classifier's
// internal per-class totals when missed is true.
func (c *Classifier) ObserveMiss(addr uint64, missed bool) Class {
	cl := c.Observe(addr)
	if missed {
		c.counts.add(cl)
	}
	c.telPending++
	if c.telPending >= telFlushEvery {
		c.Flush()
	}
	return cl
}

// Counts returns the recorded per-class miss totals, publishing any
// buffered telemetry so registry and Counts agree.
func (c *Classifier) Counts() Counts {
	c.Flush()
	return c.counts
}

// touch references la in the shadow fully-associative LRU cache,
// installing it (with LRU eviction) on a miss. It reports whether la hit.
func (c *Classifier) touch(la uint64) bool {
	if n, ok := c.nodes[la]; ok {
		c.moveToFront(n)
		return true
	}

	var n *faNode
	if c.nextFree < len(c.free) {
		n = &c.free[c.nextFree]
		c.nextFree++
	} else {
		// Capacity reached: recycle the LRU node.
		n = c.tail
		c.unlink(n)
		delete(c.nodes, n.lineAddr)
	}
	n.lineAddr = la
	c.nodes[la] = n
	c.pushFront(n)
	return false
}

func (c *Classifier) moveToFront(n *faNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Classifier) unlink(n *faNode) {
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if c.head == n {
		c.head = n.next
	}
	if c.tail == n {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Classifier) pushFront(n *faNode) {
	n.next = c.head
	n.prev = nil
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// Len returns the number of lines currently resident in the shadow
// fully-associative cache.
func (c *Classifier) Len() int { return len(c.nodes) }

// UniqueLines returns the number of distinct lines referenced so far.
func (c *Classifier) UniqueLines() int { return len(c.seen) }
