package introspect

import (
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/textplot"
	"jouppi/internal/workload"
)

// l1cfg is the paper's first-level geometry: 4KB direct-mapped, 16B
// lines → 256 sets.
var l1cfg = cache.Config{Name: "L1", Size: 4096, LineSize: 16, Assoc: 1}

func TestWindowBoundaries(t *testing.T) {
	p := NewProbe(l1cfg, Options{Window: 4})
	miss := core.Result{Served: core.ServedMemory}
	hit := core.Result{L1Hit: true, Served: core.ServedL1}
	for i := 0; i < 10; i++ {
		r := hit
		if i%2 == 0 {
			r = miss
		}
		p.Observe(uint64(i*16), r)
	}
	ws := p.Windows()
	if len(ws) != 3 {
		t.Fatalf("10 accesses at window 4 must give 2 full + 1 partial window, got %d", len(ws))
	}
	for i, w := range ws[:2] {
		if w.Accesses != 4 || w.Start != uint64(i*4) {
			t.Errorf("window %d = %+v, want 4 accesses starting at %d", i, w, i*4)
		}
		if w.FullMisses() != 2 || w.MissRate() != 0.5 {
			t.Errorf("window %d miss accounting wrong: %+v", i, w)
		}
	}
	if ws[2].Accesses != 2 || ws[2].Start != 8 {
		t.Errorf("partial window = %+v, want 2 accesses starting at 8", ws[2])
	}
	// Windows must not consume the partial window: asking again gives
	// the same answer, and the probe keeps accumulating into it.
	if again := p.Windows(); len(again) != 3 || again[2] != ws[2] {
		t.Error("Windows must be a non-destructive read")
	}
}

func TestHeatmapEvictionModel(t *testing.T) {
	p := NewProbe(l1cfg, Options{Window: -1, Heatmap: true})
	sets := l1cfg.Sets()
	miss := core.Result{Served: core.ServedMemory}
	// Two conflicting lines in set 5: first two misses are fills into an
	// empty set (no eviction), every later miss displaces the resident.
	a := uint64(5 * 16)
	b := a + uint64(sets*16)
	p.Observe(a, miss)
	p.Observe(b, miss)
	p.Observe(a, miss)
	p.Observe(b, miss)
	p.Observe(a, core.Result{L1Hit: true})
	heat := p.Heat()
	h := heat[5]
	if h.Accesses != 5 || h.Misses != 4 {
		t.Fatalf("set 5 counts = %+v, want 5 accesses / 4 misses", h)
	}
	if h.Evictions != 3 {
		t.Errorf("set 5 evictions = %d, want 3 (first fill lands in an empty way)", h.Evictions)
	}
	for i, h := range heat {
		if i != 5 && h != (SetCounts{}) {
			t.Errorf("set %d unexpectedly touched: %+v", i, h)
		}
	}
}

func TestMissRingSamplingAndBound(t *testing.T) {
	p := NewProbe(l1cfg, Options{Window: -1, MissEvery: 3, MissCap: 4})
	miss := core.Result{Served: core.ServedVictim, AuxHit: true}
	for i := 0; i < 30; i++ {
		p.Observe(uint64(i)*16, miss)
	}
	// Misses 0,3,6,...,27 are sampled (10 samples); the ring keeps the
	// last 4 and reports 6 dropped.
	ev := p.Events()
	if len(ev) != 4 || p.Dropped() != 6 {
		t.Fatalf("ring holds %d events with %d dropped, want 4 and 6", len(ev), p.Dropped())
	}
	for i, e := range ev {
		want := uint64(18 + 3*i)
		if e.Access != want {
			t.Errorf("event %d at access %d, want %d (chronological tail)", i, e.Access, want)
		}
		if e.Served != core.ServedVictim {
			t.Errorf("event %d served = %v", i, e.Served)
		}
	}
	// Set/tag decomposition under the 256-set geometry.
	if e := ev[0]; e.Set != int((e.Addr>>4)&255) || e.Tag != e.Addr>>4>>8 {
		t.Errorf("set/tag decomposition wrong: %+v", e)
	}
}

func TestClassifyTagsSampledMisses(t *testing.T) {
	p := NewProbe(l1cfg, Options{Window: -1, MissEvery: 1, Classify: true})
	miss := core.Result{Served: core.ServedMemory}
	p.Observe(0, miss)                      // first touch: compulsory
	p.Observe(4096, miss)                   // first touch: compulsory
	p.Observe(0, miss)                      // seen, shadow FA holds it: conflict
	p.Observe(16, core.Result{L1Hit: true}) // hits feed the shadow too
	ev := p.Events()
	if len(ev) != 3 {
		t.Fatalf("3 misses must yield 3 samples, got %d", len(ev))
	}
	for i, want := range []string{"compulsory", "compulsory", "conflict"} {
		if !ev[i].HasClass || ev[i].Class.String() != want {
			t.Errorf("event %d class = %v (has=%v), want %s", i, ev[i].Class, ev[i].HasClass, want)
		}
	}
	if got := p.Classes().Total(); got != 3 {
		t.Errorf("classifier recorded %d misses, want 3", got)
	}
}

func TestEmitMissEvents(t *testing.T) {
	p := NewProbe(l1cfg, Options{Window: -1, MissEvery: 1, MissCap: 2})
	for i := 0; i < 3; i++ {
		p.Observe(uint64(i)<<12, core.Result{Served: core.ServedMemory})
	}
	var sb strings.Builder
	j := telemetry.NewJournal(&sb)
	p.EmitMissEvents(j, "data")
	p.EmitMissEvents(nil, "data") // nil journal: no-op
	events, err := telemetry.ReadEvents(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("journal has %d events, want header + 2 samples", len(events))
	}
	head := events[0]
	if head.Event != "miss-dump" || head.Side != "data" || head.Total != 2 || head.Dropped != 1 {
		t.Errorf("miss-dump header = %+v", head)
	}
	if e := events[2]; e.Event != "miss-event" || e.Addr != "0x2000" || e.Served != "memory" {
		t.Errorf("miss-event line = %+v", e)
	}
}

func TestWindowGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewProbe(l1cfg, Options{Window: 2})
	p.AttachTelemetry(reg, "l1d")
	p.Observe(0, core.Result{Served: core.ServedMemory})
	snap := reg.Snapshot()
	if snap["introspect_l1d_windows_total"] != 0 {
		t.Error("gauges must not move before a window boundary")
	}
	p.Observe(16, core.Result{L1Hit: true})
	snap = reg.Snapshot()
	if snap["introspect_l1d_windows_total"] != 1 ||
		snap["introspect_l1d_window_accesses"] != 2 ||
		snap["introspect_l1d_window_full_misses"] != 1 ||
		snap["introspect_l1d_window_miss_rate_ppm"] != 500000 {
		t.Errorf("window gauges wrong after boundary: %v", snap)
	}
}

// replaySystem streams one workload through a hierarchy at a small scale.
func replaySystem(t *testing.T, sys *hierarchy.System, name string) {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	b.Generate(0.02, memtrace.SinkFunc(sys.Access))
	// A manual Access loop must flush, like sim.Replay does: probes on
	// the cheap miss-observer tap receive their final access-count sync
	// at flush time.
	sys.FlushTelemetry()
}

// probeConfigs spans every front-end kind on both sides.
func probeConfigs() map[string]hierarchy.Config {
	stream := core.StreamConfig{Ways: 4, Depth: 4}
	return map[string]hierarchy.Config{
		"baseline": {},
		"misscache4": {
			DAugment: hierarchy.Augment{Kind: hierarchy.MissCache, Entries: 4},
		},
		"victim4": {
			IAugment: hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 4},
			DAugment: hierarchy.Augment{Kind: hierarchy.VictimCache, Entries: 4},
		},
		"improved": {
			IAugment: hierarchy.Augment{Kind: hierarchy.StreamBuffers, Stream: core.StreamConfig{Ways: 1, Depth: 4}},
			DAugment: hierarchy.Augment{Kind: hierarchy.VictimAndStream, Entries: 4, Stream: stream},
		},
	}
}

// TestAttributionProperty is the satellite property test: for every
// workload and front-end kind, the probe's per-ServedBy window counts
// sum exactly to the front-end's aggregate stats, and the heatmap's
// per-set counts sum to the L1 cache array's stats.
func TestAttributionProperty(t *testing.T) {
	for _, wl := range workload.Names() {
		for cfgName, cfg := range probeConfigs() {
			t.Run(wl+"/"+cfgName, func(t *testing.T) {
				sys := hierarchy.MustNew(cfg)
				sp := Attach(sys, Options{Window: 1 << 12, Heatmap: true, MissEvery: 16})
				replaySystem(t, sys, wl)

				sides := []struct {
					name  string
					probe *Probe
					fe    core.FrontEnd
				}{
					{"I", sp.I, sys.IFrontEnd()},
					{"D", sp.D, sys.DFrontEnd()},
				}
				for _, s := range sides {
					st := s.fe.Stats()
					var served [5]uint64
					var total uint64
					for _, w := range s.probe.Windows() {
						total += w.Accesses
						for i, n := range w.Served {
							served[i] += n
						}
					}
					if total != st.Accesses || total != s.probe.Accesses() {
						t.Fatalf("%s: window accesses %d != stats %d (probe %d)",
							s.name, total, st.Accesses, s.probe.Accesses())
					}
					checks := []struct {
						name string
						got  uint64
						want uint64
					}{
						{"l1", served[core.ServedL1], st.L1Hits},
						{"miss-cache", served[core.ServedMissCache], st.MissCacheHits},
						{"victim", served[core.ServedVictim], st.VictimHits},
						{"stream", served[core.ServedStream], st.StreamHits},
						{"memory", served[core.ServedMemory], st.FullMisses()},
					}
					for _, c := range checks {
						if c.got != c.want {
							t.Errorf("%s: %s attribution %d != stats %d", s.name, c.name, c.got, c.want)
						}
					}

					cs := s.fe.Cache().Stats()
					var heat SetCounts
					for _, h := range s.probe.Heat() {
						heat.Accesses += h.Accesses
						heat.Misses += h.Misses
						heat.Evictions += h.Evictions
					}
					if heat.Accesses != cs.Accesses || heat.Misses != cs.Misses {
						t.Errorf("%s: heatmap sums %+v != cache stats %+v", s.name, heat, cs)
					}
					if heat.Evictions != cs.Evictions {
						t.Errorf("%s: heatmap evictions %d != cache evictions %d",
							s.name, heat.Evictions, cs.Evictions)
					}
				}
			})
		}
	}
}

// TestObserverEquivalence pins the tentpole guarantee at the hierarchy
// level: attaching a fully-enabled probe changes no simulated number.
func TestObserverEquivalence(t *testing.T) {
	for cfgName, cfg := range probeConfigs() {
		t.Run(cfgName, func(t *testing.T) {
			plain := hierarchy.MustNew(cfg)
			probed := hierarchy.MustNew(cfg)
			Attach(probed, Options{Window: 1 << 10, Heatmap: true, MissEvery: 4, Classify: true})
			replaySystem(t, plain, "ccom")
			replaySystem(t, probed, "ccom")
			if a, b := plain.Results(0), probed.Results(0); a != b {
				t.Errorf("introspection changed simulated numbers:\nplain  %+v\nprobed %+v", a, b)
			}
		})
	}
}

func TestRenderHelpers(t *testing.T) {
	p := NewProbe(l1cfg, Options{Window: 2, Heatmap: true})
	for i := 0; i < 8; i++ {
		r := core.Result{L1Hit: true}
		if i%4 == 0 {
			r = core.Result{Served: core.ServedMemory}
		}
		p.Observe(uint64(i%3)*16, r)
	}
	phases := RenderPhases("phases", []textplot.Series{PhaseSeries("base", p.Windows())}, 40, 8)
	if !strings.Contains(phases, "miss rate %") || !strings.Contains(phases, "base") {
		t.Errorf("phase render missing labels:\n%s", phases)
	}
	heat := RenderHeat("heat", p.Heat(), HeatAccesses, 64)
	if !strings.Contains(heat, "ramp") {
		t.Errorf("heat render missing legend:\n%s", heat)
	}
	top := TopSets(p.Heat(), HeatAccesses, 2)
	if len(top) != 2 || top[0] != 0 {
		t.Errorf("TopSets = %v, want set 0 hottest", top)
	}
	table := TopSetsTable(p.Heat(), HeatMisses, 4)
	if !strings.Contains(table, "evictions") {
		t.Errorf("top-set table missing headers:\n%s", table)
	}
	if got := TopSets(nil, HeatMisses, 3); len(got) != 0 {
		t.Errorf("TopSets over nil heat = %v", got)
	}
}
