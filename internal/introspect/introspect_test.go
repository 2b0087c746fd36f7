package introspect

import (
	"slices"
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/classify"
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

// newLevel builds a level over an l1cfg cache with the helpers aux
// declares.
func newLevel(t *testing.T, aux core.Aux) *core.Level {
	t.Helper()
	l, err := core.NewLevel(cache.MustNew(l1cfg), aux, nil, core.Timing{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWindowBoundaries(t *testing.T) {
	l := newLevel(t, core.Aux{})
	p := AttachLevel(l, Options{Window: 4})
	// Even accesses miss on a new line, odd ones hit it again.
	for i := 0; i < 10; i++ {
		l.Access(uint64(i/2*16), false)
	}
	l.Flush()
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
	l := newLevel(t, core.Aux{})
	p := AttachLevel(l, Options{Window: -1, Heatmap: true})
	sets := l1cfg.Sets()
	// Two conflicting lines in set 5: first two misses are fills into an
	// empty set (no eviction), every later miss displaces the resident.
	a := uint64(5 * 16)
	b := a + uint64(sets*16)
	for _, addr := range []uint64{a, b, a, b, b} {
		l.Access(addr, false)
	}
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
	l := newLevel(t, core.Aux{})
	p := AttachLevel(l, Options{Window: -1, MissEvery: 3, MissCap: 4})
	for i := 0; i < 30; i++ {
		l.Access(uint64(i)*16, false)
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
		if e.Served != core.ServedMemory {
			t.Errorf("event %d served = %v", i, e.Served)
		}
	}
	// Set/tag decomposition under the 256-set geometry.
	if e := ev[0]; e.Set != int((e.Addr>>4)&255) || e.Tag != e.Addr>>4>>8 {
		t.Errorf("set/tag decomposition wrong: %+v", e)
	}
}

// TestClassifyTagsSampledMisses drives a classifier the way cachesim
// does — each access after the level resolved it — and checks each
// sampled miss carries the class the classifier counted for it.
func TestClassifyTagsSampledMisses(t *testing.T) {
	l := newLevel(t, core.Aux{})
	cl := classify.MustNew(l1cfg.Size, l1cfg.LineSize)
	p := AttachLevel(l, Options{Window: -1, MissEvery: 1, Classifier: cl})
	// First touches of 0 and 4096 are compulsory; 0 again is seen and
	// the shadow FA holds it: conflict. The last access hits, and hits
	// feed the classifier too.
	for _, addr := range []uint64{0, 4096, 0, 8} {
		r := l.Access(addr, false)
		cl.ObserveMiss(addr, !r.L1Hit)
	}
	ev := p.Events()
	if len(ev) != 3 {
		t.Fatalf("3 misses must yield 3 samples, got %d", len(ev))
	}
	for i, want := range []string{"compulsory", "compulsory", "conflict"} {
		if !ev[i].HasClass || ev[i].Class.String() != want {
			t.Errorf("event %d class = %v (has=%v), want %s", i, ev[i].Class, ev[i].HasClass, want)
		}
	}
	if got := cl.Counts().Total(); got != 3 {
		t.Errorf("classifier recorded %d misses, want 3", got)
	}
}

func TestEmitMissEvents(t *testing.T) {
	l := newLevel(t, core.Aux{})
	p := AttachLevel(l, Options{Window: -1, MissEvery: 1, MissCap: 2})
	for i := 0; i < 3; i++ {
		l.Access(uint64(i)<<12, false)
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
	l := newLevel(t, core.Aux{})
	p := AttachLevel(l, Options{Window: 2})
	p.AttachTelemetry(reg, "l1d")
	l.Access(0, false) // miss
	l.Access(0, false) // hit: the window is complete
	if snap := reg.Snapshot(); snap["introspect_l1d_windows_total"] != 0 {
		t.Error("gauges must not move before the window closes")
	}
	l.Flush()
	snap := reg.Snapshot()
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
	// A manual Access loop must flush, like sim.Replay does: probes
	// receive their final access-count sync at flush time.
	sys.FlushTelemetry()
}

// probeConfigs spans every front-end kind on both sides.
func probeConfigs() map[string]hierarchy.Config {
	stream := core.StreamConfig{Ways: 4, Depth: 4}
	return map[string]hierarchy.Config{
		"baseline": {},
		"misscache4": {
			DAugment: core.Aux{MissCache: 4},
		},
		"victim4": {
			IAugment: core.Aux{Victim: 4},
			DAugment: core.Aux{Victim: 4},
		},
		"improved": {
			IAugment: core.Aux{Stream: core.StreamConfig{Ways: 1, Depth: 4}},
			DAugment: core.Aux{Victim: 4, Stream: stream},
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
			Attach(probed, Options{Window: 1 << 10, Heatmap: true, MissEvery: 4})
			replaySystem(t, plain, "ccom")
			replaySystem(t, probed, "ccom")
			if a, b := plain.Results(0), probed.Results(0); a != b {
				t.Errorf("introspection changed simulated numbers:\nplain  %+v\nprobed %+v", a, b)
			}
		})
	}
}

func TestRenderHelpers(t *testing.T) {
	l := newLevel(t, core.Aux{})
	p := AttachLevel(l, Options{Window: 2, Heatmap: true})
	for i := 0; i < 8; i++ {
		l.Access(uint64(i%3)*16, false)
	}
	l.Flush()
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

// TestL2LevelProbe attaches a probe to the second level of a system with
// an L2 victim cache and L2 stream buffers: the same tap reads any
// level. Its windows must account for every L2 access exactly as the
// level's Stats do, and attaching it must change no simulated number.
func TestL2LevelProbe(t *testing.T) {
	cfg := probeConfigs()["improved"]
	cfg.L2Augment = core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4}}
	plain := hierarchy.MustNew(cfg)
	probed := hierarchy.MustNew(cfg)
	p := AttachLevel(probed.L2Level(), Options{Window: 256, Heatmap: true, MissEvery: 8})
	replaySystem(t, plain, "ccom")
	replaySystem(t, probed, "ccom")
	if a, b := plain.Results(0), probed.Results(0); a != b {
		t.Errorf("an L2 probe changed simulated numbers:\nplain  %+v\nprobed %+v", a, b)
	}

	st := probed.L2Level().Stats()
	ws := p.Windows()
	var got Window
	for _, w := range ws {
		got.Accesses += w.Accesses
		for i, n := range w.Served {
			got.Served[i] += n
		}
	}
	want := Window{Accesses: st.Accesses, Served: [5]uint64{
		st.L1Hits, st.MissCacheHits, st.VictimHits, st.StreamHits, st.FullMisses()}}
	if got != want {
		t.Errorf("L2 window sums %+v != level stats %+v", got, want)
	}
	if len(ws) < 2 || st.StreamHits == 0 || len(p.Events()) == 0 {
		t.Errorf("L2 probe views too thin to test: %d windows, %d stream hits, %d events",
			len(ws), st.StreamHits, len(p.Events()))
	}
	var heat SetCounts
	for _, h := range p.Heat() {
		heat.Accesses += h.Accesses
		heat.Misses += h.Misses
	}
	if cs := probed.L2Level().Cache().Stats(); heat.Accesses != cs.Accesses || heat.Misses != cs.Misses {
		t.Errorf("L2 heatmap sums %+v != cache stats %+v", heat, cs)
	}
}

// TestWindowsMatchPerAccessOracle bins every access's Result by its
// index into windows and samples every 7th miss, on a plain copy of the
// level, and demands the probe's windows and events — built only from
// the misses it asked for and differences of the level's Stats — equal
// them exactly, boundary by boundary.
func TestWindowsMatchPerAccessOracle(t *testing.T) {
	aux := core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4}}
	tr := workload.GenerateTrace(workload.MustByName("ccom"), 0.02)
	for _, size := range []int{64, 1000, 4096} {
		oracle, probed := newLevel(t, aux), newLevel(t, aux)
		p := AttachLevel(probed, Options{Window: size, MissEvery: 7, MissCap: 1 << 20})
		var want []Window
		var events []MissEvent
		var i, misses uint64
		tr.Each(func(a memtrace.Access) {
			if !a.Kind.IsData() {
				return
			}
			addr, store := uint64(a.Addr), a.Kind == memtrace.Store
			probed.Access(addr, store)
			r := oracle.Access(addr, store)
			if i%uint64(size) == 0 {
				want = append(want, Window{Start: i})
			}
			w := &want[len(want)-1]
			w.Accesses++
			w.Served[r.Served]++
			if !r.L1Hit {
				if misses%7 == 0 {
					la := addr >> 4
					events = append(events, MissEvent{Access: i, Addr: addr, Set: int(la & 255), Tag: la >> 8, Served: r.Served})
				}
				misses++
			}
			i++
		})
		probed.Flush()
		got := p.Windows()
		if len(got) != len(want) || len(want) < 3 {
			t.Fatalf("window %d: %d windows, oracle %d", size, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("window %d: window %d = %+v, oracle %+v", size, k, got[k], want[k])
			}
		}
		if ev := p.Events(); !slices.Equal(ev, events) {
			t.Errorf("window %d: %d sampled events, oracle %d", size, len(ev), len(events))
		}
	}
}
