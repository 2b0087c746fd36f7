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
// When a registry is live, a Counter is striped across cache-line-padded
// shards: Inc/Add touch one shard (picked by a cheap per-goroutine hash),
// and Value aggregates the shards lazily at read time. Concurrent writers
// therefore do not serialize on a single cache line, and a /metrics
// scrape reading Value never stalls writers. Hot loops avoid even the
// per-update shard atomic: the simulator components keep updating the
// plain single-writer stats structs they always had and publish the
// deltas of those structs into shared counters at flush boundaries
// (every few thousand accesses and at end of replay), while stream
// decoders batch through a LocalCounter — a plain accumulator owned by
// the writing goroutine, flushed at chunk boundaries. Either way a
// scrape taken mid-replay may lag the true count by at most one flush
// interval; flushes at end of replay and at results time make the final
// numbers exact.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numShards is the stripe width of counters and histogram accumulators.
// A power of two so the shard pick is a shift; 16 keeps write contention
// negligible up to well beyond the core counts the replay engines use,
// at a fixed 1 KiB per counter.
const (
	numShards = 16
	shardBits = 4
)

// pad64 is one striped accumulator slot, padded out to a cache line so
// adjacent shards never false-share.
type pad64 struct {
	v atomic.Uint64
	_ [56]byte
}

// shardIndex picks this goroutine's stripe. Goroutines have distinct
// stacks, so hashing the address of a stack variable spreads concurrent
// writers across shards at the cost of one multiply — no thread-local
// storage exists in Go, and pinning APIs are runtime-internal. The value
// is only a hash seed; the uintptr never converts back to a pointer.
func shardIndex() uint64 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return (uint64(p) * 0x9E3779B97F4A7C15) >> (64 - shardBits)
}

// Counter is a monotonically increasing metric, striped across padded
// shards (see the package comment). The zero value is ready to use; all
// methods are nil-receiver safe.
type Counter struct {
	shards [numShards]pad64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.shards[shardIndex()].v.Add(1)
	}
}

// Add adds n. Adding zero touches no shard, so callers can publish a
// stats delta unconditionally.
func (c *Counter) Add(n uint64) {
	if c != nil && n != 0 {
		c.shards[shardIndex()].v.Add(n)
	}
}

// Value aggregates the shards and returns the current count (0 on a nil
// counter). Concurrent updates may or may not be included; updates are
// never lost or double-counted.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Local returns a LocalCounter feeding c. A nil counter yields a detached
// LocalCounter whose Flush is a no-op.
func (c *Counter) Local() LocalCounter { return LocalCounter{c: c} }

// LocalCounter is a plain, non-atomic accumulator owned by a single
// goroutine and flushed into its shared Counter in batches. It is the
// hot-path form of a counter: Inc is one ordinary register increment, so
// an instrumented replay loop pays essentially nothing per access and one
// atomic add per flush interval.
//
// The zero value is a valid detached accumulator. LocalCounter values
// must not be copied after first use (the pending delta would flush
// twice) and must not be shared between goroutines.
type LocalCounter struct {
	n uint64
	c *Counter
}

// Inc adds one to the local accumulator.
func (l *LocalCounter) Inc() { l.n++ }

// Add adds n to the local accumulator.
func (l *LocalCounter) Add(n uint64) { l.n += n }

// Flush publishes the pending delta into the shared counter and zeroes
// the accumulator. Detached LocalCounters simply drop the delta.
func (l *LocalCounter) Flush() {
	if l.n != 0 {
		l.c.Add(l.n) // nil-safe: detached locals drop the delta
		l.n = 0
	}
}

// Pending returns the delta accumulated since the last Flush.
func (l *LocalCounter) Pending() uint64 { return l.n }

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

// histShard is one stripe of a histogram's count/sum pair, padded to a
// cache line.
type histShard struct {
	count atomic.Uint64
	sum   atomic.Uint64 // float64 bits, CAS-updated within this shard only
	_     [48]byte
}

// Histogram accumulates observations into fixed buckets. Buckets are
// cumulative in the Prometheus sense: bucket i counts observations ≤
// bounds[i], with an implicit +Inf bucket at the end. The running count
// and sum are striped like Counter shards, so the float-bits
// compare-and-swap that accumulates the sum only ever races with writers
// that hashed to the same shard — the retry loop that was unbounded under
// contention on a single slot now almost always succeeds first try. All
// methods are nil-receiver safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	shards [numShards]histShard
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
	s := &h.shards[shardIndex()]
	s.count.Add(1)
	for {
		old := s.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.shards {
		total += h.shards[i].count.Load()
	}
	return total
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
	var total float64
	for i := range h.shards {
		total += math.Float64frombits(h.shards[i].sum.Load())
	}
	return total
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
