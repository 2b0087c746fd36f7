// Package hierarchy composes the full baseline memory system of the
// paper's §2 — split 4KB direct-mapped first-level instruction and data
// caches with 16B lines, a pipelined 1MB direct-mapped second-level cache
// with 128B lines, and main memory — together with the augmentations of
// §3–5 attached to either first-level cache and, as an extension, to the
// second level. Every level is a core.Level declared by a core.Aux.
//
// The hierarchy routes a memory-reference trace to the right first-level
// front-end, forwards first-level fetch traffic (demand and prefetch) into
// the second-level cache, and gathers the counts the performance model
// needs.
package hierarchy

import (
	"math/bits"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/perfmodel"
)

// Config describes a complete two-level system. Zero-valued cache configs
// default to the paper's baseline geometry.
type Config struct {
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config

	// IAugment / DAugment declare the first-level caches' helper
	// hardware.
	IAugment core.Aux
	DAugment core.Aux

	// L2Augment declares helper hardware for the second-level cache —
	// the §3.5/§5 "apply these techniques to second-level caches" future
	// work. Its stream buffers prefetch from main memory.
	L2Augment core.Aux

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

	ife *core.Level
	dfe *core.Level

	// tel holds the live counters (AttachTelemetry); nil unless
	// attached. It sits right after the front-end words so the nil check
	// Access performs per reference shares their cache line.
	tel *sysTel

	l2   *cache.Cache
	l2fe *core.Level // wraps l2 with its helper hardware

	l2i L2Stats // L2 traffic caused by the instruction side
	l2d L2Stats // L2 traffic caused by the data side
	mem MemStats

	l1iShift uint
	l1dShift uint

	// fetchHook, when set, sees every first-level fetch before the L2
	// does, with its side ('I' or 'D'). Tests set it; nothing else does.
	fetchHook func(side byte, lineAddr uint64, prefetch bool)
}

// Validate reports what New would reject in cfg — its caches' geometry
// (zero-valued caches take the baseline's) and its helper structures —
// without allocating any of them.
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	for _, aux := range []core.Aux{c.IAugment, c.DAugment, c.L2Augment} {
		if err := aux.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	s := &System{cfg: cfg}

	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	s.l2 = l2
	// The L2 front-end's timing is irrelevant to the system performance
	// model (which works from counts), so baseline timing is fine. Its
	// fetch callback is main-memory traffic.
	memFetch := func(lineAddr uint64, prefetch bool) {
		if prefetch {
			s.mem.PrefetchFetches++
		} else {
			s.mem.DemandFetches++
		}
	}
	s.l2fe, err = core.NewLevel(l2, cfg.L2Augment, memFetch, cfg.Timing)
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
	// Validate checked that line sizes are powers of two.
	s.l1iShift = uint(bits.TrailingZeros(uint(cfg.L1I.LineSize)))
	s.l1dShift = uint(bits.TrailingZeros(uint(cfg.L1D.LineSize)))

	s.ife, err = core.NewLevel(l1i, cfg.IAugment, s.fetcher('I', &s.l2i, s.l1iShift), cfg.Timing)
	if err != nil {
		return nil, err
	}
	s.dfe, err = core.NewLevel(l1d, cfg.DAugment, s.fetcher('D', &s.l2d, s.l1dShift), cfg.Timing)
	if err != nil {
		return nil, err
	}
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

// fetcher routes a first-level fetch from side into the second level,
// attributing traffic to stats.
func (s *System) fetcher(side byte, stats *L2Stats, l1Shift uint) core.Fetcher {
	return func(lineAddr uint64, prefetch bool) {
		if s.fetchHook != nil {
			s.fetchHook(side, lineAddr, prefetch)
		}
		r := s.l2fe.Access(lineAddr<<l1Shift, false)
		switch r.Served {
		case core.ServedVictim:
			stats.VictimHits++
		case core.ServedStream:
			stats.StreamHits++
		}
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
	}
}

// Access routes one trace reference. With telemetry attached, the only
// per-access telemetry cost is one pending-count increment; the outcome
// counters are derived from the simulator's stats and published every
// telFlushEvery references (and at replay/results boundaries). Taps on
// the levels (core.Level.SetTap) see misses from inside the levels.
func (s *System) Access(a memtrace.Access) {
	switch a.Kind {
	case memtrace.Ifetch:
		s.ife.Access(uint64(a.Addr), false)
	case memtrace.Load:
		s.dfe.Access(uint64(a.Addr), false)
	case memtrace.Store:
		s.dfe.Access(uint64(a.Addr), true)
	}
	if s.tel != nil {
		s.tel.pending++
		if s.tel.pending >= telFlushEvery {
			// The full flush, not just flushTel: the levels' taps are
			// synced at the periodic mid-replay flush too, so a probe's
			// windows keep closing through miss-free stretches.
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

// IFrontEnd returns the instruction-side level (for inspection).
func (s *System) IFrontEnd() *core.Level { return s.ife }

// DFrontEnd returns the data-side level (for inspection).
func (s *System) DFrontEnd() *core.Level { return s.dfe }

// L2Level returns the second-level level (for inspection and taps).
func (s *System) L2Level() *core.Level { return s.l2fe }

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
	count := func(l *core.Level, shift uint) (lines, violations int) {
		resident := append(l.Cache().ResidentLines(), l.AuxResidentLines()...)
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
