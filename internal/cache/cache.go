// Package cache implements the cache models underlying the simulator:
// direct-mapped, set-associative, and fully-associative caches with
// configurable line size, replacement policy, and write policy.
//
// The package operates on plain byte addresses (uint64) and exposes both a
// high-level Access path (probe, fill on miss) for standalone simulation
// and low-level Probe/Fill/Invalidate primitives that the paper's
// miss-cache, victim-cache, and stream-buffer front-ends compose.
package cache

import (
	"fmt"
	"math/bits"

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
	// Size is the total data capacity in bytes. Must be a power of two.
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
	if c.Size <= 0 || bits.OnesCount(uint(c.Size)) != 1 {
		return fmt.Errorf("cache %q: size %d is not a positive power of two", c.Name, c.Size)
	}
	if c.LineSize <= 0 || bits.OnesCount(uint(c.LineSize)) != 1 {
		return fmt.Errorf("cache %q: line size %d is not a positive power of two", c.Name, c.LineSize)
	}
	if c.LineSize > c.Size {
		return fmt.Errorf("cache %q: line size %d exceeds cache size %d", c.Name, c.LineSize, c.Size)
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

// Counters is the optional live telemetry of a Cache: registry counters
// for the same events the plain Stats already count. The cache's probe
// and fill fast paths never touch these — the Stats struct is the
// single (non-atomic, single-writer) source of truth, and a flush
// publishes the delta since the previous flush into the shared registry
// counters. The owner of the replay loop (the hierarchy system, or a CLI
// driver) flushes at chunk boundaries and at results time, so a /metrics
// scrape lags the live run by at most one flush interval and the final
// numbers are exact, while an instrumented replay costs exactly as much
// as an uninstrumented one between flushes.
type Counters struct {
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	fills      *telemetry.Counter
	evictions  *telemetry.Counter
	writebacks *telemetry.Counter
	last       Stats // stats already published to the registry
}

// NewCounters registers the standard cache counter set under
// sim_cache_<label>_* in reg. A nil registry yields detached (no-op)
// counters.
func NewCounters(reg *telemetry.Registry, label string) *Counters {
	name := telemetry.SanitizeName(label)
	return &Counters{
		hits:       reg.Counter("sim_cache_"+name+"_hits_total", "cache "+label+": probe hits"),
		misses:     reg.Counter("sim_cache_"+name+"_misses_total", "cache "+label+": probe misses"),
		fills:      reg.Counter("sim_cache_"+name+"_fills_total", "cache "+label+": lines installed"),
		evictions:  reg.Counter("sim_cache_"+name+"_evictions_total", "cache "+label+": valid lines displaced"),
		writebacks: reg.Counter("sim_cache_"+name+"_writebacks_total", "cache "+label+": dirty evictions"),
	}
}

// publish sends the delta between cur and the last published stats to
// the registry and records cur as published. Nil receivers are no-ops.
func (t *Counters) publish(cur Stats) {
	if t == nil {
		return
	}
	t.hits.Add(cur.Hits - t.last.Hits)
	t.misses.Add(cur.Misses - t.last.Misses)
	t.fills.Add(cur.Fills - t.last.Fills)
	t.evictions.Add(cur.Evictions - t.last.Evictions)
	t.writebacks.Add(cur.Writebacks - t.last.Writebacks)
	t.last = cur
}

// rebase marks cur as already published without emitting anything, so a
// freshly attached registry counts activity from attach time forward and
// a stats reset does not underflow the deltas.
func (t *Counters) rebase(cur Stats) {
	if t != nil {
		t.last = cur
	}
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
	sets      [][]way
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
	tel       *Counters
}

// New builds a cache from cfg. It returns an error if cfg is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	assoc := cfg.Assoc
	if assoc == FullyAssociative {
		assoc = cfg.Lines()
	}
	numSets := cfg.Lines() / assoc
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:   uint64(numSets - 1),
		rng:       cfg.RandomSeed | 1,
	}
	c.sets = make([][]way, numSets)
	backing := make([]way, numSets*assoc)
	for i := range c.sets {
		c.sets[i], backing = backing[:assoc:assoc], backing[assoc:]
	}
	return c, nil
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

// Instrument attaches live telemetry counters, fed by delta-publication
// from the cache's Stats at flush time (the probe/fill hot paths carry
// no telemetry code at all). nil detaches, publishing whatever the
// previous attachment had not flushed yet. A freshly attached counter
// set counts activity from attach time forward. Attachment is not
// synchronized with a running replay; attach before replay begins.
func (c *Cache) Instrument(tel *Counters) {
	c.tel.publish(c.Stats())
	c.tel = tel
	c.tel.rebase(c.Stats())
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
	for _, s := range [][]uint64{acc, miss, evict} {
		if (s == nil) != (acc == nil) || (s != nil && len(s) != len(c.sets)) {
			panic(fmt.Sprintf("cache %q: InstrumentSets wants three equal arrays of %d counters (got %d/%d/%d)",
				c.cfg.Name, len(c.sets), len(acc), len(miss), len(evict)))
		}
	}
	for _, n := range c.heatAcc {
		c.stats.Accesses += n
	}
	c.heatAcc, c.heatMiss, c.heatEvict = acc, miss, evict
}

// FlushTelemetry publishes the stats delta since the last flush to the
// attached registry counters, if any. The hierarchy flushes its caches
// at chunk boundaries; standalone users should flush before reading the
// registry.
func (c *Cache) FlushTelemetry() { c.tel.publish(c.Stats()) }

// ResetStats zeroes the activity counters — including an attached
// per-set array, which holds part of them — without disturbing contents.
// Pending telemetry deltas are published first; the attached registry
// counters keep their (monotonic) totals and resume from the reset.
func (c *Cache) ResetStats() {
	c.tel.publish(c.Stats())
	c.stats = Stats{}
	c.resetHeat()
	c.tel.rebase(Stats{})
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

func (c *Cache) setFor(lineAddr uint64) []way { return c.sets[lineAddr&c.setMask] }

// Probe looks up addr, updating recency and dirty state on a hit. It
// reports whether the line is present. On a miss the cache is unchanged;
// the caller decides whether and what to Fill.
func (c *Cache) Probe(addr uint64, write bool) bool {
	if write {
		c.stats.Writes++
	}
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
	set := c.setFor(la)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == la {
			if c.cfg.Replacement != FIFO {
				c.tick++
				w.used = c.tick
			}
			if write && c.cfg.WritePolicy == WriteBack {
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

// Contains reports whether addr's line is present without updating any
// replacement or statistics state.
func (c *Cache) Contains(addr uint64) bool {
	la := c.LineAddr(addr)
	set := c.setFor(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return true
		}
	}
	return false
}

// Fill installs addr's line, selecting a victim per the replacement policy
// if the set is full, and returns the displaced line. dirty marks the new
// line as holding unwritten store data (write-allocate store miss under
// write-back). Filling a line that is already present refreshes its
// recency instead of duplicating it.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	la := c.LineAddr(addr)
	set := c.setFor(la)
	c.tick++

	victim := -1
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == la {
			// Already present (e.g. racing prefetch): refresh.
			w.used = c.tick
			w.dirty = w.dirty || dirty
			return Victim{}
		}
		if !w.valid && victim == -1 {
			victim = i
		}
	}
	if victim == -1 {
		victim = c.pickVictim(set)
	}

	w := &set[victim]
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

func (c *Cache) pickVictim(set []way) int {
	switch c.cfg.Replacement {
	case Random:
		// xorshift64*; cheap deterministic pseudo-randomness.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(len(set)))
	default: // LRU and FIFO both evict the minimum 'used' tick; FIFO
		// simply never refreshes it on hits (see Probe).
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[best].used {
				best = i
			}
		}
		return best
	}
}

// Invalidate removes addr's line if present and reports whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := c.LineAddr(addr)
	set := c.setFor(la)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == la {
			present, dirty = true, w.dirty
			*w = way{}
			return present, dirty
		}
	}
	return false, false
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

// Reset invalidates every line and zeroes the statistics.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = way{}
		}
	}
	c.tick = 0
	c.tel.publish(c.Stats())
	c.stats = Stats{}
	c.resetHeat()
	c.tel.rebase(Stats{})
	c.rng = c.cfg.RandomSeed | 1
}

// Touch updates the recency of addr's line if present, without counting an
// access. The victim-cache swap path uses it to model the swapped-in line
// becoming most recently used.
func (c *Cache) Touch(addr uint64) bool {
	la := c.LineAddr(addr)
	set := c.setFor(la)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == la {
			c.tick++
			w.used = c.tick
			return true
		}
	}
	return false
}

// MarkDirty sets the dirty bit on addr's line if present. Used when a line
// arrives from a victim cache carrying modified data.
func (c *Cache) MarkDirty(addr uint64) bool {
	la := c.LineAddr(addr)
	set := c.setFor(la)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == la {
			w.dirty = true
			return true
		}
	}
	return false
}

// Utilization returns the fraction of lines currently valid.
func (c *Cache) Utilization() float64 {
	valid := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				valid++
			}
		}
	}
	return float64(valid) / float64(c.cfg.Lines())
}

// ResidentLines returns the line addresses of every valid line, in no
// particular order. Intended for content inspection (e.g. inclusion
// analysis between hierarchy levels), not for the simulation fast path.
func (c *Cache) ResidentLines() []uint64 {
	out := make([]uint64, 0, c.cfg.Lines())
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				out = append(out, set[i].tag)
			}
		}
	}
	return out
}
