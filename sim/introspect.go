package sim

import "jouppi/internal/introspect"

// Introspection configures the optional time- and space-resolved probe a
// replay can carry: phase windows (miss rate and hit attribution per N
// accesses), per-set heatmaps, and a sampled miss-event trace. The probe
// is a pure reader — the introspection equivalence tests pin that an
// introspected replay produces bit-identical simulated numbers — and
// per-access cost is a handful of plain integer increments (the 3C
// shadow classifier, when enabled, is the one exception).
type Introspection struct {
	// Window is the phase-window width in accesses
	// (introspect.DefaultWindow when zero; negative disables windows).
	Window int
	// Heatmap enables per-L1-set access/miss/eviction counting.
	Heatmap bool
	// MissEvery samples every Nth L1 miss into a bounded event ring;
	// zero disables the trace. MissCap bounds the ring
	// (introspect.DefaultMissCap when zero).
	MissEvery int
	MissCap   int
	// Classify tags sampled miss events with their 3C class.
	Classify bool
}

func (o Introspection) toOptions() introspect.Options {
	return introspect.Options{
		Window:    o.Window,
		Heatmap:   o.Heatmap,
		MissEvery: o.MissEvery,
		MissCap:   o.MissCap,
		Classify:  o.Classify,
	}
}

// AttachIntrospection installs probes on both first-level sides of the
// system and returns them. Attach before the replay starts; one probe
// set per system (fan-out replays attach one per consumer).
func (s *System) AttachIntrospection(o Introspection) *introspect.SystemProbe {
	return introspect.Attach(s.sys, o.toOptions())
}
