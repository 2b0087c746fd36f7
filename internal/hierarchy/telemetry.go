package hierarchy

import "jouppi/internal/telemetry"

// telFlushEvery is the system's telemetry flush cadence in accesses. The
// simulator's own (non-atomic, single-writer) stats structs are the only
// counters the hot path touches; telemetry is published by copying the
// delta of those stats into the shared registry counters every
// telFlushEvery routed references, at the end of every sim.Replay, and
// whenever Results or FlushTelemetry is called. A /metrics
// scrape taken mid-replay therefore lags the live run by at most this
// many accesses; completed runs are exact.
const telFlushEvery = 4096

// sysTel is the system-level counter set AttachTelemetry installs; the
// levels and their caches carry their own (core.Level.Instrument).
type sysTel struct {
	l2  *telemetry.Deltas // both sides' L2 traffic, split demand/prefetch
	mem *telemetry.Deltas // main-memory fetches below the L2

	// pending counts references since the last flush; Access flushes the
	// whole set once it reaches telFlushEvery.
	pending int
}

// l2Traffic returns both sides' L2 traffic, in the order AttachTelemetry
// registers the sim_l2_* counters.
func (s *System) l2Traffic() [4]uint64 {
	return [4]uint64{
		s.l2i.DemandAccesses + s.l2d.DemandAccesses,
		s.l2i.DemandMisses + s.l2d.DemandMisses,
		s.l2i.PrefetchAccesses + s.l2d.PrefetchAccesses,
		s.l2i.PrefetchMisses + s.l2d.PrefetchMisses,
	}
}

// flushTel publishes the system-level stats growth since the last flush.
func (s *System) flushTel() {
	l2 := s.l2Traffic()
	s.tel.l2.Publish(l2[:]...)
	s.tel.mem.Publish(s.mem.DemandFetches, s.mem.PrefetchFetches)
	s.tel.pending = 0
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
	s.ife.Instrument(reg, "sim_l1i_")
	s.dfe.Instrument(reg, "sim_l1d_")
	s.l2.Instrument(reg)
	s.tel = nil
	if reg == nil {
		return
	}
	s.tel = &sysTel{
		l2: reg.Deltas(
			"sim_l2_demand_accesses_total", "L2: demand accesses from either first-level side",
			"sim_l2_demand_misses_total", "L2: demand accesses that missed everywhere",
			"sim_l2_prefetch_accesses_total", "L2: stream-buffer prefetch accesses",
			"sim_l2_prefetch_misses_total", "L2: prefetch accesses that missed everywhere"),
		mem: reg.Deltas(
			"sim_mem_demand_fetches_total", "memory: demand line fetches below the L2",
			"sim_mem_prefetch_fetches_total", "memory: prefetch line fetches below the L2"),
	}
	// Count from attach time forward: mark the current stats published.
	l2 := s.l2Traffic()
	s.tel.l2.Rebase(l2[:]...)
	s.tel.mem.Rebase(s.mem.DemandFetches, s.mem.PrefetchFetches)
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
