package hierarchy

import (
	"strings"
	"testing"

	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
)

func telemetryTestTrace(t *testing.T) *memtrace.Trace {
	t.Helper()
	return workload.GenerateTrace(workload.MustByName("ccom"), 0.02)
}

// TestAttachTelemetryMatchesStats replays a workload on an instrumented
// combined system and checks every live counter against the plain Stats
// the same run accumulated.
func TestAttachTelemetryMatchesStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IAugment = Augment{Kind: StreamBuffers, Stream: core.StreamConfig{Ways: 1}}
	cfg.DAugment = Augment{Kind: VictimAndStream, Entries: 4, Stream: core.StreamConfig{Ways: 4}}
	sys := MustNew(cfg)
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)

	telemetryTestTrace(t).Each(sys.Access)
	sys.FlushTelemetry()

	snap := reg.Snapshot()
	res := sys.Results(0)

	want := map[string]uint64{
		"sim_l1i_accesses_total":         res.I.Accesses,
		"sim_l1i_l1_hits_total":          res.I.L1Hits,
		"sim_l1i_aux_hits_total":         res.I.AuxHits,
		"sim_l1i_stream_hits_total":      res.I.StreamHits,
		"sim_l1i_full_misses_total":      res.I.FullMisses(),
		"sim_l1d_accesses_total":         res.D.Accesses,
		"sim_l1d_l1_hits_total":          res.D.L1Hits,
		"sim_l1d_aux_hits_total":         res.D.AuxHits,
		"sim_l1d_victim_hits_total":      res.D.VictimHits,
		"sim_l1d_stream_hits_total":      res.D.StreamHits,
		"sim_l1d_miss_cache_hits_total":  res.D.MissCacheHits,
		"sim_l1d_full_misses_total":      res.D.FullMisses(),
		"sim_l2_demand_accesses_total":   res.L2I.DemandAccesses + res.L2D.DemandAccesses,
		"sim_l2_demand_misses_total":     res.L2I.DemandMisses + res.L2D.DemandMisses,
		"sim_l2_prefetch_accesses_total": res.L2I.PrefetchAccesses + res.L2D.PrefetchAccesses,
		"sim_l2_prefetch_misses_total":   res.L2I.PrefetchMisses + res.L2D.PrefetchMisses,
		"sim_mem_demand_fetches_total":   res.Mem.DemandFetches,
		"sim_mem_prefetch_fetches_total": res.Mem.PrefetchFetches,
	}
	for name, v := range want {
		got, ok := snap[name]
		if !ok {
			t.Errorf("counter %s not registered", name)
			continue
		}
		if got != float64(v) {
			t.Errorf("%s = %v, want %d", name, got, v)
		}
	}
	if res.D.AuxHits == 0 {
		t.Error("test workload produced no data-side aux hits; counters untested")
	}

	// The cache arrays were instrumented too, under their config names.
	l1d := sys.DFrontEnd().Cache().Stats()
	if got := snap["sim_cache_L1D_hits_total"]; got != float64(l1d.Hits) {
		t.Errorf("sim_cache_L1D_hits_total = %v, want %d", got, l1d.Hits)
	}
	if got := snap["sim_cache_L1D_misses_total"]; got != float64(l1d.Misses) {
		t.Errorf("sim_cache_L1D_misses_total = %v, want %d", got, l1d.Misses)
	}
	l2 := sys.L2Cache().Stats()
	if got := snap["sim_cache_L2_fills_total"]; got != float64(l2.Fills) {
		t.Errorf("sim_cache_L2_fills_total = %v, want %d", got, l2.Fills)
	}

	// The Prometheus exposition carries the same values.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, name := range []string{"sim_l1d_victim_hits_total", "sim_l2_demand_accesses_total"} {
		if !strings.Contains(sb.String(), name+" ") {
			t.Errorf("Prometheus output missing %s", name)
		}
	}
}

// TestAttachTelemetryIdentical verifies the acceptance criterion that an
// attached registry does not perturb simulation results: two identical
// systems, one instrumented, must agree on every counter after the same
// replay.
func TestAttachTelemetryIdentical(t *testing.T) {
	tr := telemetryTestTrace(t)
	cfg := DefaultConfig()
	cfg.DAugment = Augment{Kind: VictimAndStream, Entries: 4, Stream: core.StreamConfig{Ways: 4}}

	plain := MustNew(cfg)
	instr := MustNew(cfg)
	instr.AttachTelemetry(telemetry.NewRegistry())

	tr.Each(plain.Access)
	tr.Each(instr.Access)

	if a, b := plain.Results(tr.Instructions()), instr.Results(tr.Instructions()); a != b {
		t.Errorf("telemetry changed results:\nplain: %+v\ninstr: %+v", a, b)
	}
}

// TestAttachTelemetryDetach checks that AttachTelemetry(nil) stops the
// counter feed.
func TestAttachTelemetryDetach(t *testing.T) {
	sys := MustNew(DefaultConfig())
	reg := telemetry.NewRegistry()
	sys.AttachTelemetry(reg)
	sys.AttachTelemetry(nil)

	telemetryTestTrace(t).Each(sys.Access)

	if got := reg.Snapshot()["sim_l1i_accesses_total"]; got != 0 {
		t.Errorf("detached system still counted %v accesses", got)
	}
}
