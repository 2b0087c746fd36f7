// Package hierarchy composes the full baseline memory system of the
// paper's §2 — split 4KB direct-mapped first-level instruction and data
// caches with 16B lines, a pipelined 1MB direct-mapped second-level cache
// with 128B lines, and main memory — together with the augmentations of
// §3–5 attached to either first-level cache and, as an extension, a victim
// cache behind the second level.
//
// The hierarchy routes a memory-reference trace to the right first-level
// front-end, forwards first-level fetch traffic (demand and prefetch) into
// the second-level cache, and gathers the counts the performance model
// needs.
package hierarchy

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/perfmodel"
)

// AugmentKind selects the augmentation attached to a first-level cache.
type AugmentKind uint8

// The available first-level augmentations.
const (
	None AugmentKind = iota
	MissCache
	VictimCache
	StreamBuffers
	VictimAndStream
)

// String returns the augmentation name.
func (k AugmentKind) String() string {
	switch k {
	case None:
		return "none"
	case MissCache:
		return "miss-cache"
	case VictimCache:
		return "victim-cache"
	case StreamBuffers:
		return "stream-buffers"
	case VictimAndStream:
		return "victim+stream"
	default:
		return fmt.Sprintf("AugmentKind(%d)", uint8(k))
	}
}

// Augment configures one first-level cache's helper hardware.
type Augment struct {
	Kind AugmentKind
	// Entries sizes the miss or victim cache (ignored otherwise).
	Entries int
	// Stream configures the stream buffers (ignored unless Kind includes
	// stream buffers).
	Stream core.StreamConfig
}

// Config describes a complete two-level system. Zero-valued cache configs
// default to the paper's baseline geometry.
type Config struct {
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config

	// IAugment / DAugment attach helper hardware to the first-level
	// caches.
	IAugment Augment
	DAugment Augment

	// L2Augment attaches helper hardware to the second-level cache —
	// the §3.5/§5 "apply these techniques to second-level caches" future
	// work. Its stream buffers prefetch from main memory.
	L2Augment Augment

	// L2VictimEntries is shorthand for L2Augment{Kind: VictimCache,
	// Entries: n}; ignored when L2Augment is set.
	L2VictimEntries int

	// Timing carries the first-level penalties; Perf the system-level
	// penalties. Zero values take the paper's baseline.
	Timing core.Timing
	Perf   perfmodel.Params
}

// DefaultConfig returns the paper's baseline system: 4KB split I/D caches
// with 16B lines, 1MB L2 with 128B lines, penalties 24 and 320.
func DefaultConfig() Config {
	return Config{
		L1I:    cache.Config{Name: "L1I", Size: 4096, LineSize: 16, Assoc: 1},
		L1D:    cache.Config{Name: "L1D", Size: 4096, LineSize: 16, Assoc: 1},
		L2:     cache.Config{Name: "L2", Size: 1 << 20, LineSize: 128, Assoc: 1},
		Timing: core.DefaultTiming(),
		Perf:   perfmodel.DefaultParams(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.L1I.Size == 0 {
		c.L1I = d.L1I
	}
	if c.L1D.Size == 0 {
		c.L1D = d.L1D
	}
	if c.L2.Size == 0 {
		c.L2 = d.L2
	}
	if c.Timing == (core.Timing{}) {
		c.Timing = d.Timing
	}
	if c.Perf == (perfmodel.Params{}) {
		c.Perf = d.Perf
	}
	return c
}

// L2Stats separates second-level traffic by source and type.
type L2Stats struct {
	DemandAccesses   uint64
	DemandMisses     uint64
	PrefetchAccesses uint64
	PrefetchMisses   uint64
	// VictimHits counts L2 victim-cache hits (extension).
	VictimHits uint64
	// StreamHits counts L2 stream-buffer hits (extension).
	StreamHits uint64
}

// MemStats counts main-memory traffic (fetches below the L2).
type MemStats struct {
	// DemandFetches are memory lines fetched because an L2 demand access
	// missed everywhere; PrefetchFetches are issued by L2 stream buffers.
	DemandFetches   uint64
	PrefetchFetches uint64
}

// System is a runnable two-level memory hierarchy.
type System struct {
	cfg Config

	ife core.FrontEnd
	dfe core.FrontEnd

	// The optional replay taps live right after the front-end words so
	// the nil checks Access performs per reference share the front-ends'
	// cache lines. tel holds live counters (AttachTelemetry), obs a full
	// per-access observer (AttachObserver), mobs the cheap miss-only tap
	// (AttachMissObserver); each is nil unless attached.
	tel  *sysTel
	obs  Observer
	mobs MissObserver
	// imc/dmc are the miss observer's per-side hot counters (nil when
	// detached or not exposed), booked inline by Access; iAcc/dAcc
	// point at the front-ends' live access counters (core.AccessCounter)
	// so the tap reads the index the access just counted without an
	// interface call.
	imc  *MissCounters
	dmc  *MissCounters
	iAcc *uint64
	dAcc *uint64

	l2   *cache.Cache
	l2fe core.FrontEnd // wraps l2, possibly with a victim cache

	l2i L2Stats // L2 traffic caused by the instruction side
	l2d L2Stats // L2 traffic caused by the data side
	mem MemStats

	l1iShift uint
	l1dShift uint
}

// Observer receives every routed reference together with its resolution.
// Observers are read-only taps: they must not touch the simulated
// structures, so attaching one changes no simulated number (the
// introspection equivalence tests pin this). The callback runs on the
// replay's hot path — keep it to plain struct updates — and even a
// trivial callback costs an indirect call per access; consumers that
// only need misses and periodic counts should use a MissObserver
// instead.
type Observer interface {
	ObserveAccess(a memtrace.Access, r core.Result)
}

// MissCounters is one side's hot miss-bookkeeping state, owned by a
// MissObserver but updated inline by the hierarchy: a consumer that
// exposes it (via Counters) gets the common miss booked with a handful
// of inline stores — no call of any kind — and receives an ObserveMiss
// interface call only for the misses its slow path must see: one whose
// index reaches NextWin (a period boundary to close) or one that would
// take SampleIn below zero (a sample to take). The consumer reads the
// fields back when it renders; it must not touch them mid-replay.
type MissCounters struct {
	// NextWin is the access index at which the consumer's current
	// period closes (MaxUint64 when periods are off); a miss at or past
	// it is delivered via ObserveMiss so the consumer can close periods
	// retroactively at exact boundaries.
	NextWin uint64
	// Accesses is the consumer's access high-water mark. The inline
	// path rides it forward on each miss so a mid-replay snapshot never
	// sees more misses than accesses; SyncAccesses makes it exact.
	Accesses uint64
	// Served counts the current period's misses by the structure that
	// served them, indexed by core.ServedBy ([8] so a &7 mask replaces
	// the bounds check).
	Served [8]uint64
	// SampleIn counts misses down to the next sample. The inline path
	// only decrements it while it stays non-negative; the miss that
	// would drop it below zero goes through ObserveMiss, which re-arms
	// it.
	SampleIn int64
}

// MissObserver is the cheap replay tap: instead of seeing every access,
// it is called only on first-level misses and at flush boundaries. The
// hierarchy keeps no extra per-access state for it — the access index a
// miss carries is the side's own front-end counter, which the access
// just incremented — so the cost on the overwhelmingly common L1 hit is
// one nil check and one test of the already-loaded result. The same
// read-only contract as Observer applies.
type MissObserver interface {
	// ObserveMiss receives first-level misses with their resolution.
	// index is the 0-based per-side access index of the missing access
	// (the front-end's lifetime count); misses arrive in ascending
	// index order, so a consumer can place its own period boundaries
	// retroactively — an index at or past a boundary proves every
	// earlier period is complete. A consumer that exposes MissCounters
	// sees only the slow-path misses described there; one that returns
	// nil from Counters sees every miss.
	ObserveMiss(a memtrace.Access, r core.Result, index uint64)
	// Counters returns the side's inline-updated hot state, or nil to
	// receive every miss through ObserveMiss instead.
	Counters(instr bool) *MissCounters
	// SyncAccesses receives one side's exact running access count at
	// telemetry-flush boundaries (replay end, Results, FlushTelemetry,
	// and the periodic mid-replay flushes when a registry is attached).
	// All misses up to the counted access have already been delivered.
	SyncAccesses(instr bool, accesses uint64)
}

// AttachObserver installs o as the system's per-access observer; nil
// detaches. A system carries one observer of either kind, so this
// replaces a previous Observer or MissObserver alike. Like
// AttachTelemetry, attachment is not synchronized — attach before the
// replay starts.
func (s *System) AttachObserver(o Observer) {
	s.obs = o
	s.mobs = nil
}

// AttachMissObserver installs o as the system's miss observer, replacing
// any previous observer of either kind; nil detaches. The indices o
// receives are the front-ends' lifetime access counts, so attach to a
// fresh system — before its first access — for them to start at zero.
func (s *System) AttachMissObserver(o MissObserver) {
	s.obs = nil
	s.mobs = o
	s.imc, s.dmc = nil, nil
	if o != nil {
		s.imc, s.dmc = o.Counters(true), o.Counters(false)
	}
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	for _, cc := range []cache.Config{cfg.L1I, cfg.L1D, cfg.L2} {
		if err := cc.Validate(); err != nil {
			return nil, err
		}
	}

	s := &System{cfg: cfg}

	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	s.l2 = l2
	// The L2 front-end's timing is irrelevant to the system performance
	// model (which works from counts), so baseline timing is fine. Its
	// fetch callback is main-memory traffic.
	l2aug := cfg.L2Augment
	if l2aug.Kind == None && cfg.L2VictimEntries > 0 {
		l2aug = Augment{Kind: VictimCache, Entries: cfg.L2VictimEntries}
	}
	memFetch := func(lineAddr uint64, prefetch bool) {
		if prefetch {
			s.mem.PrefetchFetches++
		} else {
			s.mem.DemandFetches++
		}
	}
	s.l2fe, err = BuildFrontEnd(l2, l2aug, memFetch, cfg.Timing)
	if err != nil {
		return nil, err
	}

	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	s.l1iShift = shiftFor(cfg.L1I.LineSize)
	s.l1dShift = shiftFor(cfg.L1D.LineSize)

	s.ife, err = BuildFrontEnd(l1i, cfg.IAugment, s.fetcher(&s.l2i, s.l1iShift), cfg.Timing)
	if err != nil {
		return nil, err
	}
	s.dfe, err = BuildFrontEnd(l1d, cfg.DAugment, s.fetcher(&s.l2d, s.l1dShift), cfg.Timing)
	if err != nil {
		return nil, err
	}
	// BuildFrontEnd only constructs core front-end types, so the counter
	// pointers are always available.
	s.iAcc = core.AccessCounter(s.ife)
	s.dAcc = core.AccessCounter(s.dfe)
	return s, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func shiftFor(lineSize int) uint {
	shift := uint(0)
	for ls := lineSize; ls > 1; ls >>= 1 {
		shift++
	}
	return shift
}

// BuildFrontEnd attaches aug to l1, sending its fetches (demand and
// prefetch) to fetch. It is the one place an augmentation becomes a
// front end: every level of a System and cachesim's single cache are
// built here.
func BuildFrontEnd(l1 *cache.Cache, aug Augment, fetch core.Fetcher, timing core.Timing) (core.FrontEnd, error) {
	switch aug.Kind {
	case None:
		return core.NewBaseline(l1, fetch, timing), nil
	case MissCache:
		return core.NewMissCache(l1, aug.Entries, fetch, timing), nil
	case VictimCache:
		return core.NewVictimCache(l1, aug.Entries, fetch, timing), nil
	case StreamBuffers:
		if err := aug.Stream.Validate(); err != nil {
			return nil, err
		}
		return core.NewStreamBuffer(l1, aug.Stream, fetch, timing), nil
	case VictimAndStream:
		if err := aug.Stream.Validate(); err != nil {
			return nil, err
		}
		return core.NewCombined(l1, aug.Entries, aug.Stream, fetch, timing), nil
	default:
		return nil, fmt.Errorf("hierarchy: unknown augmentation kind %d", aug.Kind)
	}
}

// fetcher routes a first-level fetch into the second level, attributing
// traffic to stats.
func (s *System) fetcher(stats *L2Stats, l1Shift uint) core.Fetcher {
	return func(lineAddr uint64, prefetch bool) {
		addr := lineAddr << l1Shift
		vcBefore := s.l2VictimHits()
		sbBefore := s.l2StreamHits()
		r := s.l2fe.Access(addr, false)
		if prefetch {
			stats.PrefetchAccesses++
			if r.FullMiss() {
				stats.PrefetchMisses++
			}
		} else {
			stats.DemandAccesses++
			if r.FullMiss() {
				stats.DemandMisses++
			}
		}
		stats.VictimHits += s.l2VictimHits() - vcBefore
		stats.StreamHits += s.l2StreamHits() - sbBefore
	}
}

func (s *System) l2VictimHits() uint64 { return s.l2fe.Stats().VictimHits }

func (s *System) l2StreamHits() uint64 { return s.l2fe.Stats().StreamHits }

// Access routes one trace reference. With telemetry attached, the only
// per-access telemetry cost is one pending-count increment; the outcome
// counters are derived from the simulator's stats and published every
// telFlushEvery references (and at replay/results boundaries).
func (s *System) Access(a memtrace.Access) {
	// An attached miss observer costs the (overwhelmingly common) L1 hit
	// one nil check and one test of the result already in hand. The miss
	// path reads the per-side access index back from the front-end that
	// just counted it, so the hierarchy tracks nothing per access, and
	// books the common miss inline into the observer's MissCounters —
	// the ObserveMiss interface call is reserved for the misses the
	// observer's slow path must see (a period boundary or a due sample).
	var r core.Result
	var mc *MissCounters
	var acc *uint64
	switch a.Kind {
	case memtrace.Ifetch:
		r = s.ife.Access(uint64(a.Addr), false)
		mc, acc = s.imc, s.iAcc
	case memtrace.Load:
		r = s.dfe.Access(uint64(a.Addr), false)
		mc, acc = s.dmc, s.dAcc
	case memtrace.Store:
		r = s.dfe.Access(uint64(a.Addr), true)
		mc, acc = s.dmc, s.dAcc
	}
	if s.mobs != nil && !r.L1Hit && acc != nil {
		idx := *acc - 1
		if mc != nil && idx < mc.NextWin && mc.SampleIn > 0 {
			if idx >= mc.Accesses {
				mc.Accesses = idx + 1
			}
			mc.Served[r.Served&7]++
			mc.SampleIn--
		} else {
			s.mobs.ObserveMiss(a, r, idx)
		}
	}
	if s.obs != nil {
		s.obs.ObserveAccess(a, r)
	}
	if s.tel != nil {
		s.tel.pending++
		if s.tel.pending >= telFlushEvery {
			// The full flush, not just flushTel: the MissObserver contract
			// promises SyncAccesses at the periodic mid-replay flush too,
			// so an observer's windows keep closing through miss-free
			// stretches of the trace.
			s.FlushTelemetry()
		}
	}
}

// Access also satisfies memtrace.Sink, so a *System can be the direct
// target of a workload generator.
var _ memtrace.Sink = (*System)(nil)

// Results collects the run's counters and performance breakdown.
type Results struct {
	Instructions uint64
	I, D         core.Stats
	L2I, L2D     L2Stats
	Mem          MemStats
	Breakdown    perfmodel.Breakdown
}

// IMissRate returns the effective instruction miss rate.
func (r Results) IMissRate() float64 { return r.I.MissRate() }

// DMissRate returns the effective data miss rate.
func (r Results) DMissRate() float64 { return r.D.MissRate() }

// Results gathers counters after a run. instructions is the dynamic
// instruction count of the trace (its ifetch count). Buffered telemetry
// is flushed first, so registry and Results always agree at this point.
func (s *System) Results(instructions uint64) Results {
	s.FlushTelemetry()
	i, d := s.ife.Stats(), s.dfe.Stats()
	in := perfmodel.Inputs{
		Instructions:    instructions,
		L1IFullMisses:   i.FullMisses(),
		L1DFullMisses:   d.FullMisses(),
		IAuxHits:        i.AuxHits,
		DAuxHits:        d.AuxHits,
		L2IDemandMisses: s.l2i.DemandMisses,
		L2DDemandMisses: s.l2d.DemandMisses,
	}
	return Results{
		Instructions: instructions,
		I:            i,
		D:            d,
		L2I:          s.l2i,
		L2D:          s.l2d,
		Mem:          s.mem,
		Breakdown:    perfmodel.Compute(in, s.cfg.Perf),
	}
}

// IFrontEnd returns the instruction-side front-end (for inspection).
func (s *System) IFrontEnd() core.FrontEnd { return s.ife }

// DFrontEnd returns the data-side front-end (for inspection).
func (s *System) DFrontEnd() core.FrontEnd { return s.dfe }

// L2Cache returns the second-level cache array.
func (s *System) L2Cache() *cache.Cache { return s.l2 }

// Config returns the (defaulted) configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// InclusionReport quantifies the multilevel inclusion property (Baer &
// Wang): how many lines resident in a first-level structure are absent
// from the second-level cache. The paper's §3.5 observes that victim
// caches violate inclusion (they deliberately retain lines the hierarchy
// has pushed out), as do mismatched line sizes.
type InclusionReport struct {
	// ILines / DLines are the resident line counts of the first-level
	// caches (plus their miss/victim caches).
	ILines int
	DLines int
	// IViolations / DViolations count those lines that are not present
	// in the second-level cache.
	IViolations int
	DViolations int
}

// Inclusion scans current cache contents and reports violations.
func (s *System) Inclusion() InclusionReport {
	var r InclusionReport
	count := func(fe core.FrontEnd, shift uint) (lines, violations int) {
		resident := fe.Cache().ResidentLines()
		if aux, ok := fe.(core.AuxResidents); ok {
			resident = append(resident, aux.AuxResidentLines()...)
		}
		for _, la := range resident {
			lines++
			if !s.l2.Contains(la << shift) {
				violations++
			}
		}
		return lines, violations
	}
	r.ILines, r.IViolations = count(s.ife, s.l1iShift)
	r.DLines, r.DViolations = count(s.dfe, s.l1dShift)
	return r
}
