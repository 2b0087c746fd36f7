package core

import (
	"strings"

	"jouppi/internal/telemetry"
)

// Counters is the optional live telemetry of a Level: registry counters
// for its accesses and for the structure that served each one. The
// level's plain Stats stay the only thing the access path updates;
// Publish sends the delta since the previous call into the shared
// registry, so callers publish at flush boundaries, never per access.
type Counters struct {
	accesses      *telemetry.Counter
	l1Hits        *telemetry.Counter
	auxHits       *telemetry.Counter
	missCacheHits *telemetry.Counter
	victimHits    *telemetry.Counter
	streamHits    *telemetry.Counter
	fullMisses    *telemetry.Counter
	last          Stats // stats already published to the registry
}

// NewCounters registers a level's counter set in reg, each name starting
// with prefix (for example "sim_l1d_"). A nil registry yields detached
// (no-op) counters.
func NewCounters(reg *telemetry.Registry, prefix string) *Counters {
	label := strings.TrimSuffix(prefix, "_") + ": "
	return &Counters{
		accesses:      reg.Counter(prefix+"accesses_total", label+"references routed to this level"),
		l1Hits:        reg.Counter(prefix+"l1_hits_total", label+"cache hits"),
		auxHits:       reg.Counter(prefix+"aux_hits_total", label+"hits in any auxiliary structure"),
		missCacheHits: reg.Counter(prefix+"miss_cache_hits_total", label+"miss-cache hits"),
		victimHits:    reg.Counter(prefix+"victim_hits_total", label+"victim-cache hits"),
		streamHits:    reg.Counter(prefix+"stream_hits_total", label+"stream-buffer hits"),
		fullMisses:    reg.Counter(prefix+"full_misses_total", label+"misses served by the next level"),
	}
}

func addDelta(c *telemetry.Counter, cur, last uint64) {
	if cur != last {
		c.Add(cur - last)
	}
}

// Publish sends the growth of cur since the previous Publish (or
// Rebase) to the registry.
func (t *Counters) Publish(cur Stats) {
	addDelta(t.accesses, cur.Accesses, t.last.Accesses)
	addDelta(t.l1Hits, cur.L1Hits, t.last.L1Hits)
	addDelta(t.auxHits, cur.AuxHits, t.last.AuxHits)
	addDelta(t.missCacheHits, cur.MissCacheHits, t.last.MissCacheHits)
	addDelta(t.victimHits, cur.VictimHits, t.last.VictimHits)
	addDelta(t.streamHits, cur.StreamHits, t.last.StreamHits)
	addDelta(t.fullMisses, cur.FullMisses(), t.last.FullMisses())
	t.last = cur
}

// Rebase marks cur as already published without emitting anything, so
// counters attached to a level mid-run count from that point forward.
func (t *Counters) Rebase(cur Stats) { t.last = cur }
