package hierarchy

import (
	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/telemetry"
)

// telFlushEvery is the system's telemetry flush cadence in accesses. The
// simulator's own (non-atomic, single-writer) stats structs are the only
// counters the hot path touches; telemetry is published by copying the
// delta of those stats into the shared registry counters every
// telFlushEvery routed references, at the end of every sim.Replay, and
// whenever Results or FlushTelemetry is called. A /metrics
// scrape taken mid-replay therefore lags the live run by at most this
// many accesses; completed runs are exact.
const telFlushEvery = 4096

// addDelta publishes the growth of one stat since the last flush.
func addDelta(c *telemetry.Counter, cur, last uint64) {
	if cur != last {
		c.Add(cur - last)
	}
}

// sysTel is the system-level counter set AttachTelemetry installs.
type sysTel struct {
	i, d *core.Counters // per-side reference outcomes

	l2DemandAccesses   *telemetry.Counter
	l2DemandMisses     *telemetry.Counter
	l2PrefetchAccesses *telemetry.Counter
	l2PrefetchMisses   *telemetry.Counter
	lastL2             L2Stats // combined i+d snapshot already published

	memDemandFetches   *telemetry.Counter
	memPrefetchFetches *telemetry.Counter
	lastMem            MemStats

	// caches are the per-array counter sets handed to the cache arrays,
	// likewise published as stats deltas by the caches themselves.
	caches [3]*cache.Counters

	// pending counts references since the last flush; Access flushes the
	// whole set once it reaches telFlushEvery.
	pending int
}

// combinedL2 merges both sides' L2 traffic into one snapshot.
func (s *System) combinedL2() L2Stats {
	return L2Stats{
		DemandAccesses:   s.l2i.DemandAccesses + s.l2d.DemandAccesses,
		DemandMisses:     s.l2i.DemandMisses + s.l2d.DemandMisses,
		PrefetchAccesses: s.l2i.PrefetchAccesses + s.l2d.PrefetchAccesses,
		PrefetchMisses:   s.l2i.PrefetchMisses + s.l2d.PrefetchMisses,
	}
}

// flushTel publishes the stats deltas accumulated since the last flush
// into the shared registry.
func (s *System) flushTel() {
	t := s.tel
	t.i.Publish(s.ife.Stats())
	t.d.Publish(s.dfe.Stats())

	l2 := s.combinedL2()
	addDelta(t.l2DemandAccesses, l2.DemandAccesses, t.lastL2.DemandAccesses)
	addDelta(t.l2DemandMisses, l2.DemandMisses, t.lastL2.DemandMisses)
	addDelta(t.l2PrefetchAccesses, l2.PrefetchAccesses, t.lastL2.PrefetchAccesses)
	addDelta(t.l2PrefetchMisses, l2.PrefetchMisses, t.lastL2.PrefetchMisses)
	t.lastL2 = l2

	addDelta(t.memDemandFetches, s.mem.DemandFetches, t.lastMem.DemandFetches)
	addDelta(t.memPrefetchFetches, s.mem.PrefetchFetches, t.lastMem.PrefetchFetches)
	t.lastMem = s.mem

	s.ife.Cache().FlushTelemetry()
	s.dfe.Cache().FlushTelemetry()
	s.l2.FlushTelemetry()
	t.pending = 0
}

// AttachTelemetry registers the system's live counters in reg and starts
// feeding them: per-side reference outcomes (sim_l1i_*, sim_l1d_*),
// second-level traffic split demand/prefetch (sim_l2_*), main-memory
// fetches (sim_mem_*), and the per-array cache counters
// (sim_cache_<name>_*). A nil registry detaches, publishing anything not
// yet flushed. The counters are fed by delta-publication from the
// simulator's own stats structs — the per-access paths carry no
// telemetry code — with flushes every telFlushEvery accesses and at
// replay/results boundaries (see FlushTelemetry), so a concurrent
// /metrics scrape sees values at most one flush interval stale. A fresh
// attachment counts activity from attach time forward. Attach before the
// replay starts; attachment itself is not synchronized.
func (s *System) AttachTelemetry(reg *telemetry.Registry) {
	if s.tel != nil {
		s.flushTel()
	}
	if reg == nil {
		s.tel = nil
		s.ife.Cache().Instrument(nil)
		s.dfe.Cache().Instrument(nil)
		s.l2.Instrument(nil)
		return
	}
	s.tel = &sysTel{
		i: core.NewCounters(reg, "sim_l1i_"),
		d: core.NewCounters(reg, "sim_l1d_"),

		l2DemandAccesses:   reg.Counter("sim_l2_demand_accesses_total", "L2: demand accesses from either first-level side"),
		l2DemandMisses:     reg.Counter("sim_l2_demand_misses_total", "L2: demand accesses that missed everywhere"),
		l2PrefetchAccesses: reg.Counter("sim_l2_prefetch_accesses_total", "L2: stream-buffer prefetch accesses"),
		l2PrefetchMisses:   reg.Counter("sim_l2_prefetch_misses_total", "L2: prefetch accesses that missed everywhere"),

		memDemandFetches:   reg.Counter("sim_mem_demand_fetches_total", "memory: demand line fetches below the L2"),
		memPrefetchFetches: reg.Counter("sim_mem_prefetch_fetches_total", "memory: prefetch line fetches below the L2"),
	}
	// Count from attach time forward: mark the current stats published.
	s.tel.i.Rebase(s.ife.Stats())
	s.tel.d.Rebase(s.dfe.Stats())
	s.tel.lastL2 = s.combinedL2()
	s.tel.lastMem = s.mem
	s.tel.caches = [3]*cache.Counters{
		cache.NewCounters(reg, s.cfg.L1I.Name),
		cache.NewCounters(reg, s.cfg.L1D.Name),
		cache.NewCounters(reg, s.cfg.L2.Name),
	}
	s.ife.Cache().Instrument(s.tel.caches[0])
	s.dfe.Cache().Instrument(s.tel.caches[1])
	s.l2.Instrument(s.tel.caches[2])
}

// FlushTelemetry publishes all pending telemetry deltas to the attached
// registry immediately and syncs the taps of all three levels. Replay
// and results paths call it automatically; call it directly before
// reading the registry or a tap at a custom boundary.
func (s *System) FlushTelemetry() {
	if s.tel != nil {
		s.flushTel()
	}
	s.ife.Flush()
	s.dfe.Flush()
	s.l2fe.Flush()
}
