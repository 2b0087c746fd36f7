// Package experiments reproduces every table and figure of the paper's
// evaluation, one registered Experiment per exhibit, plus the ablation
// studies of the extensions. Each experiment consumes the shared trace
// set, sweeps the relevant parameter, and produces both structured series
// and rendered text.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"jouppi/internal/cache"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/textplot"
	"jouppi/internal/workload"
)

// Config controls how experiments run.
type Config struct {
	// Scale is the workload scale factor (1.0 ≈ 1–4M instructions per
	// benchmark). Experiments' miss-rate results are stable above ≈0.2.
	// RunAll treats 0 as 0.25.
	Scale float64
	// Traces supplies the benchmark traces; RunAll uses
	// NewTraceSet(Scale) if nil.
	Traces *TraceSet

	// Accesses, when non-nil, is bumped by the number of references each
	// replay pass simulated: a side run books its side's references and
	// a system or whole-trace run books all of them. They are added in
	// bulk at the end of the pass, so parallel sweep workers do not
	// contend per access. It is what a live progress display watches.
	// RunAll wires it automatically when RunOptions.Telemetry is set.
	Accesses *telemetry.Counter

	// ctx carries the run's cancellation signal into plan and replay,
	// which poll it. It lives in Config because the Experiment.Run
	// signature predates cancellation and every exhibit already threads
	// cfg; nil means context.Background.
	ctx context.Context
}

// WithContext returns a copy of c whose replay passes and parameter
// sweeps observe ctx: they stop early once it is cancelled. An
// experiment cut short this way returns untrustworthy partial numbers —
// RunAll discards them and reports the cancellation instead.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// Context returns the run's context, never nil. Experiments defined
// outside this package (the cachesimd job queue wraps each job as an
// Experiment to inherit RunAll's isolation, timeout, and retry
// machinery) need it to thread cancellation into their replay loops.
func (c Config) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.Traces == nil {
		c.Traces = NewTraceSet(c.Scale)
	}
	return c
}

// Result is an experiment's output. It serializes to JSON as the unit of
// checkpointing, so an interrupted sweep can resume from its completed
// exhibits.
type Result struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Text is the rendered tables and charts.
	Text string `json:"text,omitempty"`
	// Series holds the structured sweep data, where applicable.
	Series []textplot.Series `json:"series,omitempty"`
	// Headers/Rows hold the structured table, where applicable.
	Headers []string   `json:"headers,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// Err is why the experiment produced no usable output — a recovered
	// panic, a cancelled run, or an expired deadline. Empty on success.
	// It is a string, not an error, so results checkpoint to JSON.
	Err string `json:"err,omitempty"`
	// Stack is the recovered panic's stack trace, when Err records one.
	Stack string `json:"stack,omitempty"`
}

// Failed reports whether the experiment produced no usable output.
func (r *Result) Failed() bool { return r.Err != "" }

// Experiment is one reproducible paper exhibit. Run expects a Config
// with its defaults applied, as RunAll passes it.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1-1", "Table 1-1: The increasing cost of cache misses", table11},
		{"table2-1", "Table 2-1: Test program characteristics", table21},
		{"table2-2", "Table 2-2: Baseline system first-level cache miss rates", table22},
		{"fig2-2", "Figure 2-2: Baseline design performance", fig22},
		{"fig3-1", "Figure 3-1: Conflict misses, 4KB I and D caches, 16B lines", fig31},
		{"fig3-3", "Figure 3-3: Conflict misses removed by miss caching", fig33},
		{"fig3-5", "Figure 3-5: Conflict misses removed by victim caching", fig35},
		{"fig3-6", "Figure 3-6: Victim cache performance vs direct-mapped cache size", fig36},
		{"fig3-7", "Figure 3-7: Victim cache performance vs data cache line size", fig37},
		{"fig4-1", "Figure 4-1: Limited time for prefetch (ccom, I-cache, 16B lines)", fig41},
		{"fig4-3", "Figure 4-3: Sequential stream buffer performance", fig43},
		{"fig4-5", "Figure 4-5: Four-way stream buffer performance", fig45},
		{"fig4-6", "Figure 4-6: Stream buffer performance vs cache size", fig46},
		{"fig4-7", "Figure 4-7: Stream buffer performance vs line size", fig47},
		{"fig5-1", "Figure 5-1: Improved system performance", fig51},
		{"overlap", "Section 5: victim-cache / stream-buffer overlap", overlap},
		{"ablation-quasi", "Ablation: quasi-sequential vs head-only stream buffer", ablationQuasi},
		{"ablation-stride", "Ablation: stream-buffer variants across access patterns", ablationStride},
		{"ablation-l2victim", "Ablation: victim cache behind the second-level cache", ablationL2Victim},
		{"ablation-misscmp", "Ablation: victim caching vs miss caching (D-cache)", ablationMissCmp},
		{"ablation-replacement", "Ablation: replacement policy in a 4-way set-associative L1D", ablationReplacement},
		{"ablation-assoc", "Ablation: victim-cached direct-mapped vs set-associative caches", ablationAssoc},
		{"ablation-prefetchcmp", "Ablation: stream buffers vs classic prefetch techniques", ablationPrefetchCmp},
		{"ablation-depth", "Ablation: stream buffer depth (4-way, data side)", ablationDepth},
		{"ablation-writepolicy", "Ablation: write-through vs write-back data cache traffic", ablationWritePolicy},
		{"ablation-multiprog", "Ablation: multiprogramming (ccom+grr+yacc, quantum sweep)", ablationMultiprog},
		{"ablation-inclusion", "Ablation: inclusion violations (plain vs victim-cached L1)", ablationInclusion},
		{"ablation-latency", "Ablation: benefit vs memory latency (Table 1-1 projection)", ablationLatency},
		{"ablation-l2stream", "Ablation: stream buffers behind the second-level cache", ablationL2Stream},
		{"ablation-bandwidth", "Ablation: write-through store bandwidth vs unpipelined L2 (§2)", ablationBandwidth},
		{"ablation-writebuffer", "Ablation: write buffer depth vs L2 write-port speed", ablationWriteBuffer},
		{"introspect-phase", "Phase and set-pressure introspection: ccom data cache, baseline vs 4-entry victim cache", introspectPhase},
	}
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// TraceSet lazily generates and caches the six benchmark traces at a
// fixed scale. It is safe for concurrent use; traces, once built, are
// read-only.
type TraceSet struct {
	scale  float64
	mu     sync.Mutex
	traces map[string]*memtrace.Trace
}

// NewTraceSet builds an empty trace set at the given scale.
func NewTraceSet(scale float64) *TraceSet {
	return &TraceSet{scale: scale, traces: make(map[string]*memtrace.Trace)}
}

// Scale returns the set's workload scale.
func (ts *TraceSet) Scale() float64 { return ts.scale }

// Get returns the named benchmark's trace, generating it on first use.
func (ts *TraceSet) Get(name string) *memtrace.Trace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if t, ok := ts.traces[name]; ok {
		return t
	}
	b := workload.MustByName(name)
	t := workload.GenerateTrace(b, ts.scale)
	ts.traces[name] = t
	return t
}

// Source returns a fresh streaming cursor over the named benchmark's
// cached trace. Every call yields an independent cursor, so concurrent
// sweep workers can replay the shared read-only trace simultaneously.
func (ts *TraceSet) Source(name string) memtrace.Source { return ts.Get(name).Source() }

// benchNames is the paper-order benchmark list.
func benchNames() []string { return workload.Names() }

// side selects which references a run simulates: one cache's, or the
// whole trace's.
type side int

const (
	iSide side = iota
	dSide
	allRefs
)

func (s side) String() string {
	if s == iSide {
		return "L1 I-cache"
	}
	return "L1 D-cache"
}

// keep reports whether the access belongs to this side.
func (s side) keep(a memtrace.Access) bool {
	switch s {
	case iSide:
		return a.Kind == memtrace.Ifetch
	case dSide:
		return a.Kind.IsData()
	}
	return true
}

// l1Config returns a first-level cache configuration.
func l1Config(size, lineSize int) cache.Config {
	return cache.Config{Name: "L1", Size: size, LineSize: lineSize, Assoc: 1}
}

// fmtPct formats a percentage with one decimal.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// fmtRate formats a miss rate with three decimals.
func fmtRate(v float64) string { return fmt.Sprintf("%.3f", v) }

// minConflictsForAverage is the threshold below which a benchmark is
// excluded from cross-benchmark "percent of conflict misses removed"
// averages: liver and linpack have essentially no instruction misses
// (Table 2-2 reports 0.000), so a percentage of their conflicts is
// noise. The paper's averages implicitly do the same — its instruction
// miss rates for those programs are reported as zero.
const minConflictsForAverage = 25

// meanOver averages vals over the entries where include is true.
func meanOver(vals []float64, include []bool) float64 {
	sum, n := 0.0, 0
	for i, v := range vals {
		if include[i] {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
