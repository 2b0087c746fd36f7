// Package cache implements the one tag store of the simulator:
// direct-mapped, set-associative, and fully-associative caches with
// configurable line size, replacement policy, and write policy, held as
// one flat array of ways in which set s is ways[s*assoc : (s+1)*assoc].
//
// The package operates on plain byte addresses (uint64) and exposes both a
// high-level Access path (probe, fill on miss) for standalone simulation
// and low-level Probe/Fill/Invalidate primitives that the paper's
// front ends compose. The paper's miss and victim caches are themselves
// small fully-associative Caches, which may hold any whole number of
// lines.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// Replacement selects the victim-choice policy within a set.
type Replacement uint8

// Supported replacement policies. The paper's structures all use LRU; FIFO
// and Random are provided for comparison studies.
const (
	LRU Replacement = iota
	FIFO
	Random
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// WritePolicy selects how stores interact with lower levels.
type WritePolicy uint8

// Supported write policies. Both are write-allocate: a store miss fills the
// line like a load miss, which matches the paper's miss accounting (stores
// and loads are not distinguished in its miss rates).
const (
	WriteThrough WritePolicy = iota
	WriteBack
)

// String returns the policy name.
func (w WritePolicy) String() string {
	switch w {
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("WritePolicy(%d)", uint8(w))
	}
}

// Config describes a cache's geometry and policies.
type Config struct {
	// Name labels the cache in diagnostics ("L1I", "L1D", "L2").
	Name string
	// Size is the total data capacity in bytes. Must be a power of two,
	// except that a fully-associative cache (one set) may hold any whole
	// number of lines.
	Size int
	// LineSize is the line (block) size in bytes. Must be a power of two
	// and no larger than Size.
	LineSize int
	// Assoc is the number of ways per set. 1 means direct-mapped;
	// FullyAssociative (0) means a single set containing every line.
	Assoc int
	// Replacement is the within-set victim policy. Ignored for
	// direct-mapped caches. Defaults to LRU.
	Replacement Replacement
	// WritePolicy controls store handling. Defaults to WriteThrough.
	WritePolicy WritePolicy
	// RandomSeed seeds victim selection when Replacement is Random.
	RandomSeed uint64
}

// FullyAssociative is the Assoc value selecting a fully-associative cache.
const FullyAssociative = 0

// Validate checks the configuration and returns a descriptive error if it
// is unusable.
func (c Config) Validate() error {
	// Only a set index needs a power-of-two size; a fully-associative
	// cache has one set, so any whole number of lines will do.
	if c.Size <= 0 || (c.Assoc != FullyAssociative && bits.OnesCount(uint(c.Size)) != 1) {
		return fmt.Errorf("cache %q: size %d is not a positive power of two", c.Name, c.Size)
	}
	if c.LineSize <= 0 || bits.OnesCount(uint(c.LineSize)) != 1 {
		return fmt.Errorf("cache %q: line size %d is not a positive power of two", c.Name, c.LineSize)
	}
	if c.LineSize > c.Size {
		return fmt.Errorf("cache %q: line size %d exceeds cache size %d", c.Name, c.LineSize, c.Size)
	}
	if c.Size%c.LineSize != 0 {
		return fmt.Errorf("cache %q: size %d is not a whole number of %d-byte lines", c.Name, c.Size, c.LineSize)
	}
	lines := c.Size / c.LineSize
	assoc := c.Assoc
	if assoc == FullyAssociative {
		assoc = lines
	}
	if assoc < 0 || assoc > lines {
		return fmt.Errorf("cache %q: associativity %d out of range [1, %d]", c.Name, c.Assoc, lines)
	}
	if lines%assoc != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by associativity %d", c.Name, lines, assoc)
	}
	if c.Replacement > Random {
		return fmt.Errorf("cache %q: unknown replacement policy %d", c.Name, c.Replacement)
	}
	if c.WritePolicy > WriteBack {
		return fmt.Errorf("cache %q: unknown write policy %d", c.Name, c.WritePolicy)
	}
	return nil
}

// Lines returns the total number of lines the configuration holds.
func (c Config) Lines() int { return c.Size / c.LineSize }

// Sets returns the number of sets the configuration resolves to.
func (c Config) Sets() int {
	assoc := c.Assoc
	if assoc == FullyAssociative {
		assoc = c.Lines()
	}
	return c.Lines() / assoc
}

// Victim describes a line evicted by Fill.
type Victim struct {
	// LineAddr is the line address (byte address >> line-offset bits) of
	// the evicted line. Valid only when Valid is true.
	LineAddr uint64
	// Valid reports whether an actual line was displaced (false when the
	// fill landed in an empty way).
	Valid bool
	// Dirty reports whether the evicted line held unwritten store data
	// (write-back caches only).
	Dirty bool
}

// Stats accumulates cache activity counters.
type Stats struct {
	Accesses   uint64 // total Probe/Access calls
	Hits       uint64
	Misses     uint64
	Fills      uint64 // lines installed
	Evictions  uint64 // valid lines displaced by fills
	Writebacks uint64 // dirty evictions (write-back policy)
	Writes     uint64 // store accesses observed
}

// MissRate returns Misses/Accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type way struct {
	tag   uint64 // line address (full address >> lineShift)
	used  uint64 // last-touch tick (LRU) — untouched after fill under FIFO
	valid bool
	dirty bool
}

// Cache is a single cache array. It is not safe for concurrent use.
type Cache struct {
	cfg       Config
	ways      []way // set s is ways[s*assoc : (s+1)*assoc]
	assoc     int
	lineShift uint
	setMask   uint64
	// heatAcc (nil unless InstrumentSets) sits beside the geometry words
	// Probe loads anyway, so the nil check an uninstrumented probe pays
	// costs no extra cache line; the per-set counters are split per
	// metric so the one touched on every access is a dense uint64 array
	// — 8 bytes per set of extra working set instead of a whole row.
	heatAcc []uint64
	tick    uint64
	rng     uint64
	stats   Stats
	// The miss- and eviction-path counters ride after the hot fields.
	heatMiss  []uint64
	heatEvict []uint64
	tel       *telemetry.Deltas // nil unless Instrument
}

// New builds a cache from cfg. It returns an error if cfg is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:       cfg,
		ways:      make([]way, cfg.Lines()),
		assoc:     cfg.Lines() / sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:   uint64(sets - 1),
		rng:       cfg.RandomSeed | 1,
	}, nil
}

// MustNew is New but panics on invalid configuration. Intended for tests
// and statically-known configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the activity counters. While a per-set
// counter array is attached (InstrumentSets), the global access count
// lives in the per-set rows and is summed back here, so the probe fast
// path pays one increment whether or not the cache is instrumented.
func (c *Cache) Stats() Stats {
	st := c.stats
	for _, n := range c.heatAcc {
		st.Accesses += n
	}
	return st
}

// Instrument registers the cache's counter set, sim_cache_<name>_*, in
// reg and feeds it by publishing the growth of the cache's Stats at
// FlushTelemetry (the probe and fill paths carry no telemetry code). The
// set counts activity from attach time forward. A nil reg detaches,
// first publishing what the previous set had not. Attachment is not
// synchronized with a running replay; attach before replay begins.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	c.FlushTelemetry()
	c.tel = nil
	if reg == nil {
		return
	}
	label := c.cfg.Name
	name := "sim_cache_" + telemetry.SanitizeName(label) + "_"
	c.tel = reg.Deltas(
		name+"hits_total", "cache "+label+": probe hits",
		name+"misses_total", "cache "+label+": probe misses",
		name+"fills_total", "cache "+label+": lines installed",
		name+"evictions_total", "cache "+label+": valid lines displaced",
		name+"writebacks_total", "cache "+label+": dirty evictions")
	t := c.stats.published()
	c.tel.Rebase(t[:]...)
}

// published returns, in the order Instrument registers them, the totals
// the cache's counter set exports.
func (s *Stats) published() [5]uint64 {
	return [5]uint64{s.Hits, s.Misses, s.Fills, s.Evictions, s.Writebacks}
}

// InstrumentSets attaches caller-owned per-set counter arrays, one
// entry per cache set, that the probe and fill paths increment in place:
// acc counts probes mapping to each set, miss the subset that missed,
// evict the fills that displaced a valid line (the direct-mapped
// conflict signature). Counting happens where those paths have already
// computed the set index — the reason the introspection layer sources
// its heatmaps here instead of re-deriving the set per observed access —
// and the arrays are split per metric so the only one touched on every
// access is 8 bytes per set. The caller keeps the slices and reads them
// whenever it likes; the cache only writes them, following the same
// single-writer plain-struct discipline as Stats. While attached, acc
// stands in for the global access counter (see Stats), so hand over
// freshly zeroed arrays. Passing all nil detaches, folding the per-set
// access counts back into the plain counter.
func (c *Cache) InstrumentSets(acc, miss, evict []uint64) {
	sets := int(c.setMask) + 1
	for _, s := range [][]uint64{acc, miss, evict} {
		if (s == nil) != (acc == nil) || (s != nil && len(s) != sets) {
			panic(fmt.Sprintf("cache %q: InstrumentSets wants three equal arrays of %d counters (got %d/%d/%d)",
				c.cfg.Name, sets, len(acc), len(miss), len(evict)))
		}
	}
	for _, n := range c.heatAcc {
		c.stats.Accesses += n
	}
	c.heatAcc, c.heatMiss, c.heatEvict = acc, miss, evict
}

// FlushTelemetry publishes the stats growth since the last flush to the
// counters Instrument registered, if any. The level that owns the cache
// flushes it at its own flush boundaries; standalone users should flush
// before reading the registry.
func (c *Cache) FlushTelemetry() {
	t := c.stats.published()
	c.tel.Publish(t[:]...)
}

// ResetStats zeroes the activity counters — including an attached
// per-set array, which holds part of them — without disturbing contents.
// Pending telemetry deltas are published first; the attached registry
// counters keep their (monotonic) totals and resume from the reset.
func (c *Cache) ResetStats() {
	c.FlushTelemetry()
	c.stats = Stats{}
	c.resetHeat()
	c.tel.Rebase(0, 0, 0, 0, 0) // every published total is zero again
}

func (c *Cache) resetHeat() {
	for _, s := range [][]uint64{c.heatAcc, c.heatMiss, c.heatEvict} {
		for i := range s {
			s[i] = 0
		}
	}
}

// LineAddr converts a byte address to this cache's line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// LineSize returns the configured line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// find returns the valid way holding lineAddr, or nil when the line is
// absent.
func (c *Cache) find(lineAddr uint64) *way {
	first := int(lineAddr&c.setMask) * c.assoc
	ways := c.ways
	for i := first; i < first+c.assoc; i++ {
		if w := &ways[i]; w.tag == lineAddr && w.valid {
			return w
		}
	}
	return nil
}

// A set of four ways is searched as the hardware searches it, every way
// at once: hits4 folds the tag compares, valid bits included, into a
// mask, and victim4 takes the fill victim as a minimum without a
// compare-and-jump, so where a line hits or a fill lands costs no
// mispredicted jump. AccessChunk's 4-way kernel and Fill use them.
// Probe and find keep the way-by-way loop: the 4-entry miss and victim
// caches' lookups mostly miss, and the direct-mapped probe is the
// hottest path and takes no extra branch (DESIGN.md). Other set sizes
// keep the loops.

// hits4 returns a mask with bit j set when way j of set holds la.
func hits4(set *[4]way, la uint64) uint64 {
	return holds(&set[0], la) | holds(&set[1], la)<<1 | holds(&set[2], la)<<2 | holds(&set[3], la)<<3
}

// holds is 1 when w is valid and holds la, else 0.
func holds(w *way, la uint64) uint64 { return b2u(w.tag == la) & b2u(w.valid) }

// victim4 returns the way of set a fill takes, the first empty way or
// else the least recently touched (under FIFO, filled), and whether the
// set is full.
func victim4(set *[4]way) (v int, full bool) {
	k := lesser(lesser(evictKey(set, 0), evictKey(set, 1)), lesser(evictKey(set, 2), evictKey(set, 3)))
	return int(k & 3), k > 3
}

// evictKey orders the ways of a set for eviction: way j's age, 0 when
// it is empty and else one more than its last-touch tick, over j in the
// low two bits. The least key is the first way of the least age, and it
// is at most 3 only when the set has an empty way.
func evictKey(set *[4]way, j int) uint64 {
	return (set[j].used+1)&-b2u(set[j].valid)<<2 | uint64(j)
}

// lesser returns the lesser of a and b. It takes the difference's
// borrow for the compare, where the min builtin may compile to a jump.
func lesser(a, b uint64) uint64 {
	d, borrow := bits.Sub64(b, a, 0)
	return a + d&-borrow
}

// Probe looks up addr, updating recency and dirty state on a hit. It
// reports whether the line is present. On a miss the cache is unchanged;
// the caller decides whether and what to Fill.
func (c *Cache) Probe(addr uint64, write bool) bool {
	c.stats.Writes += b2u(write)
	la := c.LineAddr(addr)
	// An attached per-set counter subsumes the global access counter
	// (Stats sums it back), so instrumentation costs the same single
	// increment. Indexing with len-1 — InstrumentSets guarantees len is
	// the power-of-two set count — lets the compiler drop the bounds
	// check.
	if h := c.heatAcc; len(h) != 0 {
		h[la&uint64(len(h)-1)]++
	} else {
		c.stats.Accesses++
	}
	// find's loop, inlined with the hit path inside it: the direct-mapped
	// probe measured slower through find.
	ways := c.ways
	first := int(la&c.setMask) * c.assoc
	for i := first; i < first+c.assoc; i++ {
		if w := &ways[i]; w.tag == la && w.valid {
			if c.cfg.Replacement != FIFO {
				c.tick++
				w.used = c.tick
			}
			// The policy, a field of c, is tested first: a write-through
			// hit then never branches on the write flag.
			if c.cfg.WritePolicy == WriteBack && write {
				w.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	if h := c.heatMiss; len(h) != 0 {
		h[la&uint64(len(h)-1)]++
	}
	return false
}

// b2u is 1 for true and 0 for false; the compiler makes it a flag move,
// not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Contains reports whether addr's line is present without updating any
// replacement or statistics state.
func (c *Cache) Contains(addr uint64) bool {
	return c.find(c.LineAddr(addr)) != nil
}

// Fill installs addr's line, selecting a victim per the replacement policy
// if the set is full, and returns the displaced line. dirty marks the new
// line as holding unwritten store data (write-allocate store miss under
// write-back). Filling a line that is already present refreshes its
// recency instead of duplicating it.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	la := c.LineAddr(addr)
	first := int(la&c.setMask) * c.assoc
	set := c.ways[first : first+c.assoc]
	c.tick++
	// Look for the line, the first empty way and the way with the least
	// 'used' tick: LRU and FIFO both evict that one, FIFO simply never
	// refreshing it on hits (see Probe).
	hit, v, full := -1, 0, false
	if len(set) == 4 {
		s4 := (*[4]way)(set)
		if m := hits4(s4, la); m != 0 {
			hit = bits.TrailingZeros64(m)
		} else {
			v, full = victim4(s4)
		}
	} else {
		empty := -1
		for i := range set {
			w := &set[i]
			if !w.valid {
				if empty < 0 {
					empty = i
				}
				continue
			}
			if w.tag == la {
				hit = i
				break
			}
			if w.used < set[v].used {
				v = i
			}
		}
		if empty >= 0 {
			v = empty
		}
		full = empty < 0
	}
	if hit >= 0 {
		// Already present (e.g. racing prefetch): refresh.
		w := &set[hit]
		w.used = c.tick
		w.dirty = w.dirty || dirty
		return Victim{}
	}
	// An empty way is taken without advancing the Random generator.
	if full && c.cfg.Replacement == Random {
		// xorshift64*; cheap deterministic pseudo-randomness.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		v = int(c.rng % uint64(len(set)))
	}
	w := &set[v]
	out := Victim{LineAddr: w.tag, Valid: w.valid, Dirty: w.dirty}
	if out.Valid {
		c.stats.Evictions++
		if h := c.heatEvict; len(h) != 0 {
			h[la&uint64(len(h)-1)]++
		}
		if out.Dirty {
			c.stats.Writebacks++
		}
	}
	*w = way{tag: la, used: c.tick, valid: true, dirty: dirty}
	c.stats.Fills++
	return out
}

// Invalidate removes addr's line if present and reports whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	w := c.find(c.LineAddr(addr))
	if w == nil {
		return false, false
	}
	dirty = w.dirty
	*w = way{}
	return true, dirty
}

// Access is the standalone simulation path: probe addr and fill on miss.
// It reports whether the access hit and, when it missed, the victim the
// fill displaced.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim Victim) {
	if c.Probe(addr, write) {
		return true, Victim{}
	}
	dirty := write && c.cfg.WritePolicy == WriteBack
	return false, c.Fill(addr, dirty)
}

// Miss is one reference of a run that missed in AccessChunk.
type Miss struct {
	Index  int    // the reference's index in the run
	Addr   uint64 // its byte address
	Victim Victim // the line its fill displaced
}

// AccessChunk is Access over each reference of run in order, a store
// being a write: it appends each miss to misses and returns the extended
// slice, which the caller owns and may reuse. Stats, replacement state
// and contents end as those Access calls leave them. An LRU cache
// without per-set counters (InstrumentSets) takes the run in one loop
// with Probe and Fill fused and no call per reference, direct-mapped
// and 4-way caches in loops of their own; FIFO, Random and counted
// caches call Access for each reference.
func (c *Cache) AccessChunk(run []memtrace.Access, misses []Miss) []Miss {
	// Room for every reference to miss, so that the loops store into out
	// and make no call to grow it.
	misses = slices.Grow(misses, len(run))
	out := misses[len(misses) : len(misses)+len(run)]
	var n int
	switch {
	case c.cfg.Replacement != LRU || c.heatAcc != nil:
		for i, a := range run {
			if hit, v := c.Access(uint64(a.Addr), a.Kind == memtrace.Store); !hit {
				out[n] = Miss{Index: i, Addr: uint64(a.Addr), Victim: v}
				n++
			}
		}
	case c.assoc == 1:
		n = c.accessDirect(run, out)
	case c.assoc == 4:
		n = c.accessLRU4(run, out)
	default:
		n = c.accessLRU(run, out)
	}
	return misses[:len(misses)+n]
}

// accessDirect is AccessChunk on a direct-mapped LRU cache without
// per-set counters, its misses stored into out: every reference ticks
// once, as Probe does on a hit and Fill on a miss. The set mask is the
// last index of ways.
func (c *Cache) accessDirect(run []memtrace.Access, out []Miss) (n int) {
	ways, mask, shift := c.ways, c.setMask, c.lineShift
	wb := c.cfg.WritePolicy == WriteBack
	tick := c.tick
	var t tally
	for i, a := range run {
		la := uint64(a.Addr) >> shift
		w := &ways[la&mask]
		store := a.Kind == memtrace.Store
		t.writes += b2u(store)
		tick++
		if w.valid && w.tag == la {
			w.used = tick
			if wb && store {
				w.dirty = true
			}
			t.hits++
			continue
		}
		v := Victim{LineAddr: w.tag, Valid: w.valid, Dirty: w.dirty}
		t.evict(v)
		*w = way{tag: la, used: tick, valid: true, dirty: wb && store}
		out[n] = Miss{Index: i, Addr: uint64(a.Addr), Victim: v}
		n++
	}
	c.tick = tick
	c.add(t, len(run), n)
	return n
}

// accessLRU is accessDirect for a set-associative LRU cache: Probe's
// search of the set, then on a miss Fill's choice of the first empty
// way or the least recently used one.
func (c *Cache) accessLRU(run []memtrace.Access, out []Miss) (n int) {
	ways, mask, shift, assoc := c.ways, c.setMask, c.lineShift, c.assoc
	wb := c.cfg.WritePolicy == WriteBack
	tick := c.tick
	var t tally
next:
	for i, a := range run {
		la := uint64(a.Addr) >> shift
		first := int(la&mask) * assoc
		set := ways[first : first+assoc]
		store := a.Kind == memtrace.Store
		t.writes += b2u(store)
		tick++
		for j := range set {
			if w := &set[j]; w.tag == la && w.valid {
				w.used = tick
				if wb && store {
					w.dirty = true
				}
				t.hits++
				continue next
			}
		}
		lru := 0
		for j := range set {
			if !set[j].valid {
				lru = j
				break
			}
			if set[j].used < set[lru].used {
				lru = j
			}
		}
		w := &set[lru]
		v := Victim{LineAddr: w.tag, Valid: w.valid, Dirty: w.dirty}
		t.evict(v)
		*w = way{tag: la, used: tick, valid: true, dirty: wb && store}
		out[n] = Miss{Index: i, Addr: uint64(a.Addr), Victim: v}
		n++
	}
	c.tick = tick
	c.add(t, len(run), n)
	return n
}

// accessLRU4 is accessLRU for a 4-way cache, each set searched as
// hits4 and victim4 search it.
func (c *Cache) accessLRU4(run []memtrace.Access, out []Miss) (n int) {
	ways, mask, shift := c.ways, c.setMask, c.lineShift
	wb := c.cfg.WritePolicy == WriteBack
	base := c.tick
	var t tally
	for i, a := range run {
		la := uint64(a.Addr) >> shift
		first := int(la&mask) * 4
		set := (*[4]way)(ways[first : first+4])
		store := a.Kind == memtrace.Store
		t.writes += b2u(store)
		tick := base + uint64(i) + 1
		// hits4 and victim4, written out: neither inlines (cost 138
		// and 203 against the budget of 80), and the calls made this
		// loop about 5% slower (DESIGN.md).
		m := holds(&set[0], la) | holds(&set[1], la)<<1 | holds(&set[2], la)<<2 | holds(&set[3], la)<<3
		if m != 0 {
			w := &set[bits.TrailingZeros64(m)&3]
			w.used = tick
			if wb && store {
				w.dirty = true
			}
			continue
		}
		k := lesser(lesser(evictKey(set, 0), evictKey(set, 1)), lesser(evictKey(set, 2), evictKey(set, 3)))
		w := &set[k&3]
		v := Victim{LineAddr: w.tag, Valid: w.valid, Dirty: w.dirty}
		t.evict(v)
		*w = way{tag: la, used: tick, valid: true, dirty: wb && store}
		out[n] = Miss{Index: i, Addr: uint64(a.Addr), Victim: v}
		n++
	}
	c.tick = base + uint64(len(run))
	t.hits = uint64(len(run) - n)
	c.add(t, len(run), n)
	return n
}

// SideMiss is one reference of a run that missed in AccessSides. It is
// no larger than a Miss: 32 bytes.
type SideMiss struct {
	Addr   uint64 // the reference's byte address
	Victim Victim // the line its fill displaced
	Index  uint32 // the reference's index among its side's references of the run
	Side   uint8  // 0 for an ifetch, 1 for a load or store
}

// AccessSides is AccessChunk over a split first level: each ifetch of
// run goes to i, each load and store to d, a store being a write, and
// any other kind to neither. It appends each miss of either cache to
// misses in run order and returns the extended slice, which the caller
// owns and may reuse, and the number of references each cache took.
// Only misses take room in the slice. Both caches end as Access calls
// leave them. Two direct-mapped LRU caches without per-set counters
// take the run in one loop, Probe and Fill fused and their counters in
// locals; other caches call Access for each reference. run must hold
// fewer than 2^32 references.
func AccessSides(i, d *Cache, run []memtrace.Access, misses []SideMiss) ([]SideMiss, [2]int) {
	if uint64(len(run)) > 1<<32-1 {
		panic(fmt.Sprintf("cache: AccessSides run of %d references", len(run)))
	}
	if i.fusable() && i.assoc == 1 && d.fusable() && d.assoc == 1 {
		return accessSidesDirect(i, d, run, misses)
	}
	caches := [2]*Cache{i, d}
	var n [2]int
	for _, a := range run {
		var side uint8
		switch a.Kind {
		case memtrace.Ifetch:
		case memtrace.Load, memtrace.Store:
			side = 1
		default:
			continue
		}
		if hit, v := caches[side].Access(uint64(a.Addr), a.Kind == memtrace.Store); !hit {
			misses = append(misses, SideMiss{Addr: uint64(a.Addr), Victim: v, Index: uint32(n[side]), Side: side})
		}
		n[side]++
	}
	return misses, n
}

// fusable reports whether a fused loop may take c's references: it is
// LRU and carries no per-set counters.
func (c *Cache) fusable() bool { return c.cfg.Replacement == LRU && c.heatAcc == nil }

// accessSidesDirect is AccessSides on two direct-mapped LRU caches
// without per-set counters: accessDirect's step, on i for an ifetch and
// on d for a load or store, in one loop.
func accessSidesDirect(i, d *Cache, run []memtrace.Access, misses []SideMiss) ([]SideMiss, [2]int) {
	iways, imask, ishift := i.ways, i.setMask, i.lineShift
	dways, dmask, dshift := d.ways, d.setMask, d.lineShift
	dwb := d.cfg.WritePolicy == WriteBack
	itick, dtick := i.tick, d.tick
	var it, dt tally
	var ni, nd, imiss, dmiss int
	for _, a := range run {
		switch a.Kind {
		case memtrace.Ifetch:
			la := uint64(a.Addr) >> ishift
			w := &iways[la&imask]
			itick++
			ni++
			if w.valid && w.tag == la {
				w.used = itick
				continue
			}
			v := Victim{LineAddr: w.tag, Valid: w.valid, Dirty: w.dirty}
			it.evict(v)
			*w = way{tag: la, used: itick, valid: true}
			misses = append(misses, SideMiss{Addr: uint64(a.Addr), Victim: v, Index: uint32(ni - 1)})
			imiss++
		case memtrace.Load, memtrace.Store:
			la := uint64(a.Addr) >> dshift
			w := &dways[la&dmask]
			store := a.Kind == memtrace.Store
			dt.writes += b2u(store)
			dtick++
			nd++
			if w.valid && w.tag == la {
				w.used = dtick
				if dwb && store {
					w.dirty = true
				}
				continue
			}
			v := Victim{LineAddr: w.tag, Valid: w.valid, Dirty: w.dirty}
			dt.evict(v)
			*w = way{tag: la, used: dtick, valid: true, dirty: dwb && store}
			misses = append(misses, SideMiss{Addr: uint64(a.Addr), Victim: v, Index: uint32(nd - 1), Side: 1})
			dmiss++
		}
	}
	i.tick, d.tick = itick, dtick
	it.hits, dt.hits = uint64(ni-imiss), uint64(nd-dmiss)
	i.add(it, ni, imiss)
	d.add(dt, nd, dmiss)
	return misses, [2]int{ni, nd}
}

// tally holds the counts a fused loop keeps in locals.
type tally struct{ hits, writes, evictions, writebacks uint64 }

// evict counts a fill's victim as Fill does.
func (t *tally) evict(v Victim) {
	if v.Valid {
		t.evictions++
		t.writebacks += b2u(v.Dirty)
	}
}

// add folds a fused loop's tally over accesses references, misses of
// which missed and filled, into the Stats.
func (c *Cache) add(t tally, accesses, misses int) {
	st := &c.stats
	st.Accesses += uint64(accesses)
	st.Hits += t.hits
	st.Misses += uint64(misses)
	st.Fills += uint64(misses)
	st.Evictions += t.evictions
	st.Writebacks += t.writebacks
	st.Writes += t.writes
}

// Reset invalidates every line and zeroes the statistics.
func (c *Cache) Reset() {
	clear(c.ways)
	c.tick = 0
	c.ResetStats()
	c.rng = c.cfg.RandomSeed | 1
}

// SameState reports whether o has c's configuration, contents,
// replacement state and Stats, so that any sequence of accesses leaves
// the two equal and answers each access the same way in both.
func (c *Cache) SameState(o *Cache) bool {
	return c.cfg == o.cfg && c.tick == o.tick && c.rng == o.rng &&
		c.Stats() == o.Stats() && slices.Equal(c.ways, o.ways)
}

// CopyState gives c the contents, replacement state and Stats of o,
// which must have c's configuration. Neither may have per-set counters
// attached (InstrumentSets); c's counter set, if any, is not published.
func (c *Cache) CopyState(o *Cache) {
	if c.cfg != o.cfg {
		panic(fmt.Sprintf("cache %q: CopyState from a cache of another configuration", c.cfg.Name))
	}
	copy(c.ways, o.ways)
	c.tick, c.rng, c.stats = o.tick, o.rng, o.stats
}

// Instrumented reports whether a counter set (Instrument) or per-set
// counters (InstrumentSets) are attached to c.
func (c *Cache) Instrumented() bool { return c.tel != nil || c.heatAcc != nil }

// ResidentLines returns the line addresses of every valid line, in no
// particular order. Intended for content inspection (e.g. inclusion
// analysis between hierarchy levels), not for the simulation fast path.
func (c *Cache) ResidentLines() []uint64 {
	out := make([]uint64, 0, c.cfg.Lines())
	for _, w := range c.ways {
		if w.valid {
			out = append(out, w.tag)
		}
	}
	return out
}
