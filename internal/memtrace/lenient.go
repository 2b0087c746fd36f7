package memtrace

import (
	"fmt"
	"sort"
	"strings"

	"jouppi/internal/telemetry"
)

// Degradation reports what a lenient reader dropped while decoding a
// damaged trace. Trace-driven studies routinely meet messy real-world
// inputs — truncated downloads, bit-rotted archives, hand-edited din
// files — and an all-or-nothing decoder turns one bad record into a lost
// multi-hour replay. Lenient mode instead counts and skips malformed
// records up to a cap, and this report is surfaced alongside the
// simulation results so the damage is visible rather than silent.
type Degradation struct {
	// Dropped is the total number of records skipped.
	Dropped uint64 `json:"dropped"`
	// Reasons breaks Dropped down by malformation kind (e.g. "bad-label",
	// "address-range", "truncated-tail").
	Reasons map[string]uint64 `json:"reasons,omitempty"`
	// First describes the first malformed record encountered, with its
	// position, to give debugging a starting point.
	First string `json:"first,omitempty"`
}

// Degraded reports whether anything was dropped.
func (d Degradation) Degraded() bool { return d.Dropped > 0 }

// String renders a one-line summary, e.g.
// "3 records dropped (address-range 1, bad-label 2); first: ...".
func (d Degradation) String() string {
	if d.Dropped == 0 {
		return "no records dropped"
	}
	kinds := make([]string, 0, len(d.Reasons))
	for k := range d.Reasons {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s %d", k, d.Reasons[k]))
	}
	s := fmt.Sprintf("%d records dropped (%s)", d.Dropped, strings.Join(parts, ", "))
	if d.First != "" {
		s += "; first: " + d.First
	}
	return s
}

// record notes one dropped record in the report.
func (d *Degradation) record(reason, detail string) {
	if d.Reasons == nil {
		d.Reasons = make(map[string]uint64)
	}
	d.Dropped++
	d.Reasons[reason]++
	if d.First == "" {
		d.First = detail
	}
}

// PublishDegradation folds a finished Degradation report's per-reason
// drop counts into reg as memtrace_dropped_reason_<reason>_total
// counters (reason names sanitized for the exposition format). Call it
// once, after the replay that produced d has ended; calling it again
// with the same report would double-count. A nil registry is a no-op.
func PublishDegradation(reg *telemetry.Registry, d Degradation) {
	if reg == nil {
		return
	}
	for reason, n := range d.Reasons {
		reg.Counter(
			"memtrace_dropped_reason_"+telemetry.SanitizeName(reason)+"_total",
			"trace records dropped in lenient mode, reason: "+reason,
		).Add(n)
	}
}
