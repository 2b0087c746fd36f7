package core

import (
	"errors"
	"fmt"
	"strings"

	"jouppi/internal/cache"
	"jouppi/internal/telemetry"
)

// Aux declares the helper structures on a cache's refill path. The zero
// Aux is a plain cache.
type Aux struct {
	// MissCache is the number of miss-cache entries (§3.1); 0 for none.
	// A miss cache cannot be combined with the other structures.
	MissCache int
	// Victim is the number of victim-cache entries (§3.2); 0 for none.
	Victim int
	// Stream configures the stream buffers (§4). Ways 0 builds none; a
	// zero Depth takes the default of four entries.
	Stream StreamConfig
}

// Validate reports a negative count, an invalid stream configuration, or
// a miss cache combined with a victim cache or stream buffers: what
// NewLevel rejects.
func (a Aux) Validate() error {
	if a.MissCache < 0 {
		return fmt.Errorf("core: negative miss cache size %d", a.MissCache)
	}
	if a.Victim < 0 {
		return fmt.Errorf("core: negative victim cache size %d", a.Victim)
	}
	if err := a.Stream.Validate(); err != nil {
		return err
	}
	if a.MissCache > 0 && (a.Victim > 0 || a.Stream.Ways > 0) {
		return errors.New("core: a miss cache cannot be combined with a victim cache or stream buffers")
	}
	return nil
}

// Level is one cache — a first-level cache in the paper, the L2 in its
// extension — and the helper structures its Aux declares, probed in the
// paper's order (§5): on a cache miss the miss or victim cache first (a
// one-cycle reload or swap is the cheapest recovery), then the stream
// buffers, and only then a demand fetch from the next level.
//
// A miss cache (§3.1) holds the most recently missed lines, so a line can
// sit in both the cache and the miss cache. A victim cache (§3.2) instead
// takes every line the cache displaces — by a swap, a stream-buffer fill
// or a demand fill — so no line is ever in both, and a hit swaps the two.
// Stream buffers (§4) hold prefetched lines outside the cache, avoiding
// pollution; a hit moves the line into the cache in one cycle plus any
// remaining fill latency.
//
// The paper's improved system (§5) puts a 4-entry victim cache and a
// 4-way stream buffer on the data cache and a single stream buffer on
// the instruction cache.
type Level struct {
	// The words every access touches come first.
	l1        *cache.Cache
	stats     Stats
	mc        *cache.Cache // miss cache (fully associative), or nil
	vc        *cache.Cache // victim cache (fully associative), or nil
	set       *streamSet   // stream buffers, or nil
	writeBack bool
	fetch     Fetcher
	timing    Timing
	aux       Aux               // as declared, stream defaults filled in
	tap       Tap               // nil unless SetTap
	due       Due               // the tap's thresholds on stats
	tel       *telemetry.Deltas // nil unless Instrument
	shared    *uint64           // the Group's access count, or nil
}

// Tap reads a level's first-level misses. It is the one observation
// point of a Level: the level calls Miss on an L1 miss only once its
// Stats reach the Due the tap last returned, so a miss the tap has not
// asked for costs a nil check and two compares, and an L1 hit never
// reaches the tap. st is the level's own Stats, this access included;
// st.Accesses-1 is the access's index. A tap is a pure reader: it must
// not write st or touch the level, so attaching one changes no
// simulated number.
type Tap interface {
	// Miss receives an L1 miss that came due, with its resolution.
	Miss(addr uint64, r Result, st *Stats) Due
	// Sync receives the level's Stats at SetTap and at every Flush.
	Sync(st *Stats) Due
}

// Due holds thresholds on a level's Stats: the next L1 miss is passed to
// the tap once st.Accesses or st.L1Misses reaches the matching field.
// A field of math.MaxUint64 never comes due.
type Due struct {
	Accesses, Misses uint64
}

// NewLevel attaches the structures aux declares to l1. fetch receives the
// level's demand fetches and prefetches; it may be nil when next-level
// traffic is not modelled.
func NewLevel(l1 *cache.Cache, aux Aux, fetch Fetcher, timing Timing) (*Level, error) {
	if err := aux.Validate(); err != nil {
		return nil, err
	}
	timing = timing.withDefaults()
	l := &Level{
		l1:        l1,
		fetch:     fetch,
		timing:    timing,
		writeBack: l1.Config().WritePolicy == cache.WriteBack,
	}
	var err error
	if l.mc, err = auxCache(l1, "miss cache", aux.MissCache); err != nil {
		return nil, err
	}
	if l.vc, err = auxCache(l1, "victim cache", aux.Victim); err != nil {
		return nil, err
	}
	if aux.Stream.Ways > 0 {
		aux.Stream = aux.Stream.withDefaults()
		l.set = newStreamSet(aux.Stream, fetch, timing)
	}
	l.aux = aux
	return l, nil
}

// auxCache builds a fully-associative LRU cache of n of l1's lines — the
// paper's miss or victim cache — or returns nil when n is 0.
func auxCache(l1 *cache.Cache, name string, n int) (*cache.Cache, error) {
	if n == 0 {
		return nil, nil
	}
	line := l1.LineSize()
	return cache.New(cache.Config{Name: name, Size: n * line, LineSize: line, Assoc: cache.FullyAssociative})
}

func mustLevel(l *Level, err error) *Level {
	if err != nil {
		panic(err)
	}
	return l
}

// NewBaseline wraps l1 as a level with no helper structures. It panics on
// what NewLevel rejects.
func NewBaseline(l1 *cache.Cache, fetch Fetcher, timing Timing) *Level {
	return mustLevel(NewLevel(l1, Aux{}, fetch, timing))
}

// NewMissCache builds a level with a miss cache of the given number of
// entries (§3.1). It panics on what NewLevel rejects.
func NewMissCache(l1 *cache.Cache, entries int, fetch Fetcher, timing Timing) *Level {
	return mustLevel(NewLevel(l1, Aux{MissCache: entries}, fetch, timing))
}

// NewVictimCache builds a level with a victim cache of the given number
// of entries (§3.2). It panics on what NewLevel rejects.
func NewVictimCache(l1 *cache.Cache, entries int, fetch Fetcher, timing Timing) *Level {
	return mustLevel(NewLevel(l1, Aux{Victim: entries}, fetch, timing))
}

// NewStreamBuffer builds a level with stream buffers (§4); a zero Ways
// builds one. It panics on what NewLevel rejects.
func NewStreamBuffer(l1 *cache.Cache, cfg StreamConfig, fetch Fetcher, timing Timing) *Level {
	return mustLevel(NewLevel(l1, Aux{Stream: cfg.withDefaults()}, fetch, timing))
}

// NewCombined builds the §5 level: a victim cache plus stream buffers.
// It panics on what NewLevel rejects.
func NewCombined(l1 *cache.Cache, victimEntries int, streamCfg StreamConfig, fetch Fetcher, timing Timing) *Level {
	return mustLevel(NewLevel(l1, Aux{Victim: victimEntries, Stream: streamCfg}, fetch, timing))
}

// Access implements FrontEnd.
func (l *Level) Access(addr uint64, write bool) Result {
	if l.l1.Probe(addr, write) {
		l.stats.Accesses++
		l.stats.L1Hits++
		return Result{L1Hit: true}
	}
	return l.miss(addr, l.l1.Fill(addr, write && l.writeBack))
}

// miss resolves an L1 miss to addr once the cache has taken the line,
// displacing victim: the helper structures serve it in the paper's
// order, then victim moves into the victim cache or, without one, is
// written back if dirty. Level.Access and Group.Access both call it,
// the group once it has synced the level.
func (l *Level) miss(addr uint64, victim cache.Victim) Result {
	l.stats.Accesses++
	l.stats.L1Misses++
	r := l.serve(addr)
	if victim.Valid && l.vc != nil {
		victim = l.vc.Fill(victim.LineAddr*uint64(l.l1.LineSize()), victim.Dirty)
	}
	if victim.Valid && victim.Dirty {
		l.stats.Writebacks++
	}
	if l.tap != nil && (l.stats.Accesses >= l.due.Accesses || l.stats.L1Misses >= l.due.Misses) {
		l.due = l.tap.Miss(addr, r, &l.stats)
	}
	return r
}

// serve finds the structure that serves an L1 miss and charges its
// stall.
func (l *Level) serve(addr uint64) Result {
	la := l.l1.LineAddr(addr)

	// 1. Miss cache: the line stays in the miss cache too (it is a cache,
	// not a queue).
	if l.mc != nil && l.mc.Probe(addr, false) {
		l.stats.MissCacheHits++
		return l.auxHit(ServedMissCache, l.timing.AuxPenalty)
	}

	// 2. Victim cache: swap. The cache took the line clean; a dirty copy
	// (write-back only, so never in a Group) stays dirty.
	if l.vc != nil {
		if present, dirty := l.vc.Invalidate(addr); present {
			l.stats.VictimHits++
			if dirty {
				l.l1.Fill(addr, true)
			}
			if l.set != nil && l.set.contains(la) {
				l.stats.OverlapHits++
			}
			return l.auxHit(ServedVictim, l.timing.AuxPenalty)
		}
	}

	// 3. Stream buffers.
	if l.set != nil {
		if hit, inFlight, stall := l.set.probe(la, l.now()); hit {
			l.stats.StreamHits++
			l.stats.PrefetchUsed++
			if inFlight {
				l.stats.StreamInFlightHits++
			}
			l.stats.PrefetchIssued = l.set.issued
			return l.auxHit(ServedStream, stall)
		}
	}

	// 4. Full miss: demand-fetch the line; the miss cache keeps a copy and
	// a stream buffer restarts after it.
	l.stats.Fetches++
	if l.fetch != nil {
		l.fetch(la, false)
	}
	if l.mc != nil {
		l.mc.Fill(addr, false)
	}
	stall := l.timing.MissPenalty
	l.stats.StallCycles += uint64(stall)
	if l.set != nil {
		l.set.allocate(la, l.now())
		l.stats.PrefetchIssued = l.set.issued
	}
	return Result{Stall: stall, Served: ServedMemory}
}

// now is the level's cycle clock, Stats.Cycles: one cycle per access
// plus the stall cycles charged so far.
func (l *Level) now() uint64 { return l.stats.Accesses + l.stats.StallCycles }

func (l *Level) auxHit(by ServedBy, stall int) Result {
	l.stats.AuxHits++
	l.stats.StallCycles += uint64(stall)
	return Result{AuxHit: true, Stall: stall, Served: by}
}

// sync brings a grouped level's counts up to its group's access count:
// every access since the level's last miss hit the shared cache.
func (l *Level) sync() {
	if l.shared != nil {
		l.stats.L1Hits += *l.shared - l.stats.Accesses
		l.stats.Accesses = *l.shared
	}
}

// Stats implements FrontEnd.
func (l *Level) Stats() Stats {
	l.sync()
	return l.stats
}

// SetTap installs t as the level's tap, replacing any previous one, and
// asks it through Sync for its first Due; nil detaches. Not synchronized
// with a running replay: attach before it starts.
func (l *Level) SetTap(t Tap) {
	l.tap = t
	l.Flush()
}

// Flush publishes the growth of the level's and its cache's Stats to
// the counters Instrument registered, if any, then passes the Stats to
// the tap, if any, so the tap sees the accesses since the last miss it
// was given. Replay and results boundaries call it; it touches no
// simulated state.
func (l *Level) Flush() {
	l.publish()
	if l.tap != nil {
		l.due = l.tap.Sync(&l.stats)
	}
}

// Instrument registers the level's counter set in reg, each name
// starting with prefix (for example "sim_l1d_"): its references and the
// structure that served each one. It also instruments the level's cache
// (see cache.Cache.Instrument). Flush publishes both sets; the access
// path carries no telemetry code. The sets count from attach time
// forward. A nil reg detaches, first publishing what the previous sets
// had not. Attach before the replay starts.
func (l *Level) Instrument(reg *telemetry.Registry, prefix string) {
	l.publish()
	l.tel = nil
	l.l1.Instrument(reg)
	if reg == nil {
		return
	}
	label := strings.TrimSuffix(prefix, "_") + ": "
	l.tel = reg.Deltas(
		prefix+"accesses_total", label+"references routed to this level",
		prefix+"l1_hits_total", label+"cache hits",
		prefix+"aux_hits_total", label+"hits in any auxiliary structure",
		prefix+"miss_cache_hits_total", label+"miss-cache hits",
		prefix+"victim_hits_total", label+"victim-cache hits",
		prefix+"stream_hits_total", label+"stream-buffer hits",
		prefix+"full_misses_total", label+"misses served by the next level")
	t := l.stats.published()
	l.tel.Rebase(t[:]...)
}

// publish sends the growth of the level's and its cache's Stats since
// the previous publish to their counters.
func (l *Level) publish() {
	l.sync()
	t := l.stats.published()
	l.tel.Publish(t[:]...)
	l.l1.FlushTelemetry()
}

// published returns, in the order Level.Instrument registers them, the
// totals a level's counter set exports.
func (s *Stats) published() [7]uint64 {
	return [7]uint64{s.Accesses, s.L1Hits, s.AuxHits, s.MissCacheHits, s.VictimHits, s.StreamHits, s.FullMisses()}
}

// Cache implements FrontEnd.
func (l *Level) Cache() *cache.Cache { return l.l1 }

// Name implements FrontEnd: "baseline", "miss-cache-N", "victim-cache-N",
// "[quasi-|stride-]stream-Wway-Ddeep" or "combined-vcN-sbWxD".
func (l *Level) Name() string {
	a := l.aux
	switch {
	case a.MissCache > 0:
		return fmt.Sprintf("miss-cache-%d", a.MissCache)
	case a.Victim > 0 && a.Stream.Ways > 0:
		return fmt.Sprintf("combined-vc%d-sb%dx%d", a.Victim, a.Stream.Ways, a.Stream.Depth)
	case a.Victim > 0:
		return fmt.Sprintf("victim-cache-%d", a.Victim)
	case a.Stream.Ways > 0:
		kind := "stream"
		if a.Stream.Quasi {
			kind = "quasi-stream"
		}
		if a.Stream.DetectStride {
			kind = "stride-stream"
		}
		return fmt.Sprintf("%s-%dway-%ddeep", kind, a.Stream.Ways, a.Stream.Depth)
	}
	return "baseline"
}

// ContainsAux reports whether a helper structure holds addr's line: the
// miss or victim cache, or a stream buffer's comparators (the head only,
// unless Quasi). Intended for tests and invariant checks.
func (l *Level) ContainsAux(addr uint64) bool {
	return (l.mc != nil && l.mc.Contains(addr)) ||
		(l.vc != nil && l.vc.Contains(addr)) ||
		(l.set != nil && l.set.contains(l.l1.LineAddr(addr)))
}

// Exclusive verifies the victim-cache invariant for addr's line: it is
// not in both the cache and the victim cache.
func (l *Level) Exclusive(addr uint64) bool {
	return l.vc == nil || !(l.l1.Contains(addr) && l.vc.Contains(addr))
}

// AuxResidentLines returns the line addresses (in cache line units) held
// by the miss or victim cache, for content analyses such as the §3.5
// inclusion study. Stream-buffer entries are prefetched lines, not
// displaced cache lines, and are not included.
func (l *Level) AuxResidentLines() []uint64 {
	switch {
	case l.mc != nil:
		return l.mc.ResidentLines()
	case l.vc != nil:
		return l.vc.ResidentLines()
	}
	return nil
}

var _ FrontEnd = (*Level)(nil)
