// Package telemetry is the simulator's observability layer: a registry of
// named counters, gauges, and fixed-bucket histograms, rendered on demand
// as Prometheus text or a JSON snapshot, plus the JSONL run journal and
// live progress line built on top of them.
//
// The design goal is a zero-overhead disabled path and a near-zero-cost
// enabled path. Every metric type is nil-receiver safe — Inc/Add/Set/
// Observe on a nil metric are no-ops — and a nil *Registry hands out nil
// metrics, so instrumented code always calls through unconditionally:
//
//	var reg *telemetry.Registry // nil: telemetry disabled
//	hits := reg.Counter("sim_l1_hits_total", "L1 hits")
//	hits.Inc() // no-op, one predicted branch
//
// The simulator's writers publish at a flush boundary, never per access:
// its caches, levels, systems and classifiers keep updating the plain
// single-writer stats structs they always had, and a Deltas publishes
// the growth of those structs into shared counters every few thousand
// references, once per chunk, or once per pass; stream decoders add a
// plain pending count per chunk. Every other metric moves once per job,
// experiment, chunk or span. With no per-access write traffic to spread,
// a Counter is one atomic word, and a /metrics scrape reading it never
// stalls a writer. A scrape taken mid-replay may lag the true count by
// at most one flush interval; flushes at end of replay and at results
// time make the final numbers exact.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are nil-receiver safe.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Adding zero writes nothing, so publishing an unchanged
// total costs no atomic.
func (c *Counter) Add(n uint64) {
	if c != nil && n != 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Deltas publishes a single writer's plain running totals into registry
// counters: Publish adds each total's growth since the last Publish or
// Rebase. It is how a stats struct that only its owner updates reaches
// the registry, so the owner's hot path carries no telemetry code. A nil
// *Deltas (what a nil registry hands out) ignores every call. Not safe
// for concurrent use; the counters it feeds are.
type Deltas struct {
	counters []*Counter
	last     []uint64
}

// Deltas registers one counter per (name, help) pair and returns the
// Deltas that feeds them, the totals to publish given in the same order.
// A nil registry returns nil. An odd number of strings panics.
func (r *Registry) Deltas(nameHelp ...string) *Deltas {
	if r == nil {
		return nil
	}
	if len(nameHelp)%2 != 0 {
		panic(fmt.Sprintf("telemetry: Deltas wants (name, help) pairs, got %d strings", len(nameHelp)))
	}
	d := &Deltas{
		counters: make([]*Counter, len(nameHelp)/2),
		last:     make([]uint64, len(nameHelp)/2),
	}
	for i := range d.counters {
		d.counters[i] = r.Counter(nameHelp[2*i], nameHelp[2*i+1])
	}
	return d
}

// Publish adds each total's growth since the last Publish or Rebase to
// its counter.
func (d *Deltas) Publish(totals ...uint64) {
	if d == nil {
		return
	}
	for i, v := range totals {
		d.counters[i].Add(v - d.last[i])
		d.last[i] = v
	}
}

// Rebase marks totals as already published without emitting anything,
// so counters attached mid-run count from that point forward and a stats
// reset does not underflow the next delta.
func (d *Deltas) Rebase(totals ...uint64) {
	if d != nil {
		copy(d.last, totals)
	}
}

// Gauge is a metric that can go up and down. Gauges sit on the slow path
// (queue depths, consumer lags, progress totals), so a single atomic slot
// suffices. The zero value is ready to use; all methods are nil-receiver
// safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed buckets. Buckets are
// cumulative in the Prometheus sense: bucket i counts observations ≤
// bounds[i], with an implicit +Inf bucket at the end. All methods are
// nil-receiver safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultDurationBuckets covers per-experiment wall times from
// milliseconds to minutes.
func DefaultDurationBuckets() []float64 {
	return []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300}
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns an upper-bound estimate of the q-th quantile
// (0 < q ≤ 1): the upper bound of the bucket the quantile rank falls in.
// Observations in the implicit +Inf bucket report the largest finite
// bound — a floor, the only honest answer a fixed-bucket histogram has.
// Returns 0 on a nil or empty histogram. The estimate is what the SLO
// profile trigger compares against its bound: it can only over-estimate
// within one bucket, so a trigger threshold is conservative by at most
// the bucket width.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 || math.IsNaN(q) || q <= 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return b
		}
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// sameBounds reports whether two sorted bound slices are identical.
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// metricInfo records what a name was first registered as, so later
// registrations can be checked for silent mismatches.
type metricInfo struct {
	kind   string // "counter", "gauge", "histogram"
	help   string
	bounds []float64 // histograms only, sorted
}

// Registry is a named collection of metrics. A nil *Registry is the
// disabled state: its lookup methods return nil metrics whose updates are
// no-ops. Registration is idempotent by name; the same name always
// returns the same metric. Registering a name again as a different metric
// type, with a different (non-empty) help string, or with different
// histogram bounds panics — a silent first-registration-wins would hide
// the mismatch until someone read the wrong series off a dashboard. An
// empty help string defers to whatever help the name carries. Safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	info     map[string]metricInfo
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		info:     make(map[string]metricInfo),
	}
}

// SanitizeName rewrites s into a valid metric name: every character
// outside [a-zA-Z0-9_:] becomes '_', and a leading digit gains a '_'
// prefix. Used to fold free-form labels (e.g. trace-degradation reasons)
// into metric names.
func SanitizeName(s string) string {
	var sb strings.Builder
	for i, r := range s {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			sb.WriteByte('_')
			sb.WriteRune(r)
			continue
		}
		if valid {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

func validName(s string) bool { return s != "" && s == SanitizeName(s) }

// check validates a registration against what name is already registered
// as, recording it on first sight. Callers hold r.mu.
func (r *Registry) check(name, kind, help string, bounds []float64) {
	prev, ok := r.info[name]
	if !ok {
		r.info[name] = metricInfo{kind: kind, help: help, bounds: bounds}
		return
	}
	if prev.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a %s, re-registered as a %s",
			name, prev.kind, kind))
	}
	if help != "" && prev.help != "" && help != prev.help {
		panic(fmt.Sprintf("telemetry: metric %q help mismatch: registered %q, re-registered %q",
			name, prev.help, help))
	}
	if kind == "histogram" && !sameBounds(prev.bounds, bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q bounds mismatch: registered %v, re-registered %v",
			name, prev.bounds, bounds))
	}
	if prev.help == "" && help != "" {
		prev.help = help
		r.info[name] = prev
	}
}

// Counter returns the counter registered under name, creating it if
// needed. A nil registry returns a nil (no-op) counter. Invalid metric
// names, or re-registering name as a different type or with conflicting
// help, panic; use SanitizeName for free-form inputs.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(name, "counter", help, nil)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// A nil registry returns a nil (no-op) gauge. Invalid names and
// conflicting re-registrations panic like Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(name, "gauge", help, nil)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed. A nil registry returns a nil
// (no-op) histogram. Invalid names panic, as does re-registering name
// with different bounds (order-insensitive), a different type, or
// conflicting help.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(name, "histogram", help, sorted)
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(sorted)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns the current value of every counter and gauge, plus
// histogram _count and _sum series, keyed by metric name. Nil registries
// return an empty map.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, h := range r.hists {
		out[name+"_count"] = float64(h.Count())
		out[name+"_sum"] = h.Sum()
	}
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name so output is deterministic and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)

	var sb strings.Builder
	for _, name := range names {
		if help := r.info[name].help; help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", name, help)
		}
		switch {
		case r.counters[name] != nil:
			fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value())
		case r.gauges[name] != nil:
			fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %d\n", name, name, r.gauges[name].Value())
		default:
			h := r.hists[name]
			fmt.Fprintf(&sb, "# TYPE %s histogram\n", name)
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(&sb, "%s_sum %g\n", name, h.Sum())
			fmt.Fprintf(&sb, "%s_count %d\n", name, h.Count())
		}
	}
	r.mu.Unlock()

	_, err := io.WriteString(w, sb.String())
	return err
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }
