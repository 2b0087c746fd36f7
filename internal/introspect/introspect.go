// Package introspect adds time- and space-resolved visibility to a
// replay: where the end-of-run aggregates say *how often* a cache
// configuration missed, the probes here say *when* and *where*.
//
// A Probe is the tap (core.Tap) of one core.Level — a first-level cache
// or the L2 — and accumulates three views:
//
//   - phase windows — a time series, one sample per N accesses, of the
//     window's miss rate and hit attribution (L1 / miss cache / victim
//     cache / stream buffer / memory). Sequential phases that a stream
//     buffer absorbs, or conflict phases a victim cache flattens, show
//     up as dips the aggregate miss rate averages away.
//   - per-set heatmaps — per-set access, miss, and conflict-eviction
//     counts. The sets a victim cache relieves are exactly the hot rows
//     of the baseline's eviction heatmap.
//   - a sampled miss-event trace — a bounded ring holding every Nth L1
//     miss (access index, address, set, tag, serving structure, and the
//     3C class when a classifier is supplied), exportable as JSONL
//     through the telemetry journal.
//
// The probe adds nothing to the hit path and almost nothing to the miss
// path. Per-set heat is counted by the cache array itself
// (cache.InstrumentSets increments probe-owned arrays where the cache
// has already computed the set index). Window attribution is read from
// the level's own Stats, which already count every access by the
// structure that served it: a window's counts are the difference
// between two Stats snapshots. The probe asks the level (through
// core.Due) for only the misses it must see — the first miss past a
// window boundary and each miss due for sampling — plus a Sync at every
// flush. A miss past a boundary proves every earlier window complete,
// since all accesses between the boundary and that miss hit; the probe
// takes the miss's own access off the snapshot and closes those windows
// at their exact boundaries. Attaching a probe reads the replay, it
// never writes it: the equivalence tests pin that an introspected run
// produces bit-identical simulated numbers.
package introspect

import (
	"fmt"
	"math"
	"math/bits"

	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/hierarchy"
	"jouppi/internal/telemetry"
)

// DefaultWindow is the phase-window width, in accesses, used when
// Options.Window is zero.
const DefaultWindow = 1 << 15

// DefaultMissCap is the miss-event ring capacity used when
// Options.MissCap is zero.
const DefaultMissCap = 1024

// Options configures a Probe. The zero value enables phase windows at
// DefaultWindow and nothing else.
type Options struct {
	// Window is the phase-window width in accesses (DefaultWindow when
	// zero; negative disables phase windows).
	Window int
	// Heatmap enables per-set access/miss/eviction counting.
	Heatmap bool
	// MissEvery samples every Nth L1 miss into the event ring; zero
	// disables the miss trace.
	MissEvery int
	// MissCap bounds the event ring (DefaultMissCap when zero). Once
	// full, the ring keeps the most recent MissCap samples and counts
	// the overwritten ones as dropped.
	MissCap int
	// Classifier, when set, tags each sampled miss event with the 3C
	// class Classifier.Class reads for it. The caller feeds the
	// classifier the level's accesses, each after the level has
	// resolved it, so a sample's class is the one the caller counts.
	Classifier *classify.Classifier
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.MissCap <= 0 {
		o.MissCap = DefaultMissCap
	}
	return o
}

// Window is one completed (or, from Windows, in-progress) phase window.
type Window struct {
	// Start is the probe-local index of the window's first access; the
	// window covers [Start, Start+Accesses).
	Start    uint64
	Accesses uint64
	// Served counts the window's accesses by the structure that
	// satisfied them, indexed by core.ServedBy.
	Served [5]uint64
}

// FullMisses returns the window's demand fetches from the next level.
func (w Window) FullMisses() uint64 { return w.Served[core.ServedMemory] }

// AuxHits returns the window's augmentation hits.
func (w Window) AuxHits() uint64 {
	return w.Served[core.ServedMissCache] + w.Served[core.ServedVictim] + w.Served[core.ServedStream]
}

// MissRate returns the window's effective miss rate (full misses per
// access), or 0 for an empty window.
func (w Window) MissRate() float64 {
	if w.Accesses == 0 {
		return 0
	}
	return float64(w.FullMisses()) / float64(w.Accesses)
}

// RawMissRate returns the window's L1 miss rate before augmentation
// credit.
func (w Window) RawMissRate() float64 {
	if w.Accesses == 0 {
		return 0
	}
	return float64(w.Accesses-w.Served[core.ServedL1]) / float64(w.Accesses)
}

// SetCounts is one set's heatmap row: accesses mapping to the set, the
// subset that missed, and the fills that displaced a valid line — the
// direct-mapped conflict signature. Heat assembles rows from the
// probe's per-metric arrays (the layout cache.InstrumentSets counts
// into).
type SetCounts struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// MissEvent is one sampled L1 miss.
type MissEvent struct {
	// Access is the probe-local index (0-based) of the missing access.
	Access uint64
	// Addr is the full byte address; Set and Tag its decomposition
	// under the probed cache's geometry.
	Addr uint64
	Set  int
	Tag  uint64
	// Served names the structure that satisfied the miss.
	Served core.ServedBy
	// Class is the 3C classification; valid only when HasClass is set
	// (Options.Classifier was supplied).
	Class    classify.Class
	HasClass bool
}

// served tallies a level's accesses by the structure that served them,
// indexed by core.ServedBy; the entries sum to the access count.
type served [5]uint64

func servedOf(st *core.Stats) served {
	return served{st.L1Hits, st.MissCacheHits, st.VictimHits, st.StreamHits, st.FullMisses()}
}

func (s served) accesses() uint64 { return s[0] + s[1] + s[2] + s[3] + s[4] }

// never is a core.Due threshold no replay reaches.
const never = math.MaxUint64

// Probe is the tap of one core.Level. It is a pure reader — it never
// touches the simulated structures — and is not safe for concurrent use
// (one probe per level, one level per replay consumer).
type Probe struct {
	opts Options

	lineShift uint
	setShift  uint
	setMask   uint64

	// The probe's position on the level's own Stats. org is the level's
	// access count at attach (probe-local index 0); start and now are the
	// level's served tallies at the in-progress window's first access
	// and at the latest Miss or Sync.
	org      uint64
	winSize  uint64 // 0 = windows disabled
	winStart uint64 // level access count at the in-progress window's start
	start    served
	now      served
	windows  []Window

	// nextSample is the level's L1Misses count at the next sampled miss
	// (never when sampling is off).
	nextSample uint64

	// The heatmap counters, split per metric (nil unless Options.Heatmap)
	// and counted by the cache array.
	heatAcc   []uint64
	heatMiss  []uint64
	heatEvict []uint64

	ring      []MissEvent
	ringNext  int
	ringCount int
	dropped   uint64

	tel *probeTel // window gauges, nil unless AttachTelemetry
}

// AttachLevel builds a probe for l and installs it as l's tap,
// replacing any previous one; with Options.Heatmap it also hands the
// probe's per-set arrays to l's cache (cache.InstrumentSets). Views
// count from attach time. Attach before the replay starts.
func AttachLevel(l *core.Level, opts Options) *Probe {
	opts = opts.withDefaults()
	cfg := l.Cache().Config()
	sets := cfg.Sets()
	st := l.Stats()
	p := &Probe{
		opts:       opts,
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:   uint(bits.TrailingZeros(uint(sets))),
		setMask:    uint64(sets - 1),
		org:        st.Accesses,
		winStart:   st.Accesses,
		start:      servedOf(&st),
		now:        servedOf(&st),
		nextSample: never,
	}
	if opts.Window > 0 {
		p.winSize = uint64(opts.Window)
	}
	if opts.MissEvery > 0 {
		p.nextSample = st.L1Misses + 1
	}
	if opts.Heatmap {
		p.heatAcc = make([]uint64, sets)
		p.heatMiss = make([]uint64, sets)
		p.heatEvict = make([]uint64, sets)
		l.Cache().InstrumentSets(p.heatAcc, p.heatMiss, p.heatEvict)
	}
	l.SetTap(p)
	return p
}

// Miss implements core.Tap: it receives the first miss past a window
// boundary and each miss due for sampling.
func (p *Probe) Miss(addr uint64, r core.Result, st *core.Stats) core.Due {
	p.now = servedOf(st)
	idx := st.Accesses - 1
	if p.winSize > 0 && idx >= p.winStart+p.winSize {
		// Close the windows before this miss on the tallies just before
		// it.
		before := p.now
		before[r.Served]--
		p.closeThrough(before)
	}
	if st.L1Misses >= p.nextSample {
		p.sample(addr, r, idx)
		p.nextSample = st.L1Misses + uint64(p.opts.MissEvery)
	}
	return p.due()
}

// Sync implements core.Tap: it adopts the level's exact counts at a
// flush, closing every window they complete.
func (p *Probe) Sync(st *core.Stats) core.Due {
	p.now = servedOf(st)
	p.closeThrough(p.now)
	return p.due()
}

// due asks for the first miss at or past the in-progress window's end
// and for the next sampled miss.
func (p *Probe) due() core.Due {
	d := core.Due{Accesses: never, Misses: p.nextSample}
	if p.winSize > 0 {
		d.Accesses = p.winStart + p.winSize + 1
	}
	return d
}

// closeThrough closes every window that ends at or before to's access
// count, each at its exact boundary. No access between the first such
// boundary and to missed — the level passes the first miss past a
// boundary to Miss — so a window's end tallies are to less the L1 hits
// past its boundary.
func (p *Probe) closeThrough(to served) {
	n := to.accesses()
	for p.winSize > 0 && p.winStart+p.winSize <= n {
		end := to
		end[core.ServedL1] -= n - (p.winStart + p.winSize)
		w := p.window(end)
		p.windows = append(p.windows, w)
		if p.tel != nil {
			p.tel.publish(w)
		}
		p.winStart += p.winSize
		p.start = end
	}
}

// window is the in-progress window ending at the tallies end.
func (p *Probe) window(end served) Window {
	w := Window{Start: p.winStart - p.org}
	for i := range w.Served {
		w.Served[i] = end[i] - p.start[i]
		w.Accesses += w.Served[i]
	}
	return w
}

// sample stores one miss event in the bounded ring, overwriting the
// oldest sample (and counting it dropped) once the ring holds MissCap
// events. Growth is by append, so the ring's memory tracks the events
// actually taken rather than the configured bound.
func (p *Probe) sample(addr uint64, r core.Result, idx uint64) {
	la := addr >> p.lineShift
	e := MissEvent{
		Access: idx - p.org,
		Addr:   addr,
		Served: r.Served,
		Set:    int(la & p.setMask),
		Tag:    la >> p.setShift,
	}
	if cl := p.opts.Classifier; cl != nil {
		e.Class, e.HasClass = cl.Class(addr), true
	}
	if len(p.ring) < p.opts.MissCap {
		p.ring = append(p.ring, e)
		p.ringCount++
		return
	}
	p.ring[p.ringNext] = e
	p.ringNext = (p.ringNext + 1) % len(p.ring)
	p.dropped++
}

// Accesses returns the number of accesses the probe has seen: its
// level's count at the latest Miss or Sync, so mid-replay reads may
// trail the replay; after a flush (replay end, Results) it is exact.
func (p *Probe) Accesses() uint64 { return p.now.accesses() - p.org }

// Windows returns the completed phase windows plus, when it holds any
// accesses, the in-progress partial window as of the latest Miss or
// Sync. It is a non-destructive read and may be called mid-replay.
func (p *Probe) Windows() []Window {
	out := make([]Window, len(p.windows), len(p.windows)+1)
	copy(out, p.windows)
	if p.winSize > 0 && p.now.accesses() > p.winStart {
		out = append(out, p.window(p.now))
	}
	return out
}

// Heat returns the per-set counts, or nil when the heatmap was not
// enabled. The rows are assembled from the probe's per-metric arrays;
// index = L1 set number.
func (p *Probe) Heat() []SetCounts {
	if p.heatAcc == nil {
		return nil
	}
	out := make([]SetCounts, len(p.heatAcc))
	for i := range out {
		out[i] = SetCounts{
			Accesses:  p.heatAcc[i],
			Misses:    p.heatMiss[i],
			Evictions: p.heatEvict[i],
		}
	}
	return out
}

// Events returns the sampled miss events in chronological order.
func (p *Probe) Events() []MissEvent {
	out := make([]MissEvent, 0, p.ringCount)
	if p.ringCount == len(p.ring) && len(p.ring) > 0 {
		out = append(out, p.ring[p.ringNext:]...)
		out = append(out, p.ring[:p.ringNext]...)
		return out
	}
	return append(out, p.ring...)
}

// Dropped returns the number of sampled events the ring overwrote.
func (p *Probe) Dropped() uint64 { return p.dropped }

// probeTel is the gauge set AttachTelemetry installs; it is written only
// on window boundaries, per the delta-publication discipline.
type probeTel struct {
	windows  *telemetry.Counter
	accesses *telemetry.Gauge
	misses   *telemetry.Gauge
	auxHits  *telemetry.Gauge
	ratePPM  *telemetry.Gauge
}

func (t *probeTel) publish(w Window) {
	t.windows.Inc()
	t.accesses.Set(int64(w.Accesses))
	t.misses.Set(int64(w.FullMisses()))
	t.auxHits.Set(int64(w.AuxHits()))
	t.ratePPM.Set(int64(w.MissRate() * 1e6))
}

// AttachTelemetry registers the probe's window gauges in reg under
// introspect_<side>_*: a counter of completed windows and gauges holding
// the last completed window's accesses, full misses, augmentation hits,
// and miss rate in parts per million. Gauges move only at window
// boundaries, so the per-access path stays telemetry-free. A nil
// registry detaches.
func (p *Probe) AttachTelemetry(reg *telemetry.Registry, side string) {
	if reg == nil {
		p.tel = nil
		return
	}
	pre := "introspect_" + side + "_"
	p.tel = &probeTel{
		windows:  reg.Counter(pre+"windows_total", side+": completed phase windows"),
		accesses: reg.Gauge(pre+"window_accesses", side+": accesses in the last completed window"),
		misses:   reg.Gauge(pre+"window_full_misses", side+": full misses in the last completed window"),
		auxHits:  reg.Gauge(pre+"window_aux_hits", side+": augmentation hits in the last completed window"),
		ratePPM:  reg.Gauge(pre+"window_miss_rate_ppm", side+": last window's miss rate, parts per million"),
	}
}

// SystemProbe introspects both first-level sides of a hierarchy.System.
type SystemProbe struct {
	I, D *Probe
}

// Attach attaches a probe (per opts) to each first-level cache of sys.
// Probes are per-system — under fan-out every consumer system gets its
// own Attach call — and reading them never perturbs the simulation.
func Attach(sys *hierarchy.System, opts Options) *SystemProbe {
	return &SystemProbe{
		I: AttachLevel(sys.IFrontEnd(), opts),
		D: AttachLevel(sys.DFrontEnd(), opts),
	}
}

// AttachTelemetry registers both sides' window gauges in reg
// (introspect_l1i_*, introspect_l1d_*). A nil registry detaches.
func (sp *SystemProbe) AttachTelemetry(reg *telemetry.Registry) {
	sp.I.AttachTelemetry(reg, "l1i")
	sp.D.AttachTelemetry(reg, "l1d")
}

// EmitMissEvents writes the probe's sampled miss trace to the journal as
// one miss-dump header line followed by one miss-event line per sample.
// side labels the lines ("inst", "data", or a CLI-chosen name). A nil
// journal is a no-op, matching telemetry.Journal's convention.
func (p *Probe) EmitMissEvents(j *telemetry.Journal, side string) {
	if j == nil {
		return
	}
	events := p.Events()
	j.Emit(telemetry.Event{
		Event:   "miss-dump",
		Side:    side,
		Total:   len(events),
		Dropped: p.Dropped(),
	})
	for _, e := range events {
		ev := telemetry.Event{
			Event:  "miss-event",
			Side:   side,
			Access: e.Access,
			Addr:   fmt.Sprintf("0x%x", e.Addr),
			Set:    e.Set,
			Tag:    fmt.Sprintf("0x%x", e.Tag),
			Served: e.Served.String(),
		}
		if e.HasClass {
			ev.Class = e.Class.String()
		}
		j.Emit(ev)
	}
}
