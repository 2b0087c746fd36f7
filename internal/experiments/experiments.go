// Package experiments reproduces every table and figure of the paper's
// evaluation, one registered Experiment per exhibit, plus the ablation
// studies of the extensions. Each experiment consumes the shared trace
// set, sweeps the relevant parameter, and produces both structured series
// and rendered text.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
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
	Scale float64
	// Traces supplies the benchmark traces; NewTraceSet(Scale) if nil.
	Traces *TraceSet

	// Accesses, when non-nil, is bumped by the number of references each
	// replay pass simulated: a side run books its side's references and
	// a system or whole-trace run books all of them. They are added in
	// bulk at the end of the pass, so parallel sweep workers do not
	// contend per access. It is what a live progress display watches.
	// RunAll wires it automatically when RunOptions.Telemetry is set.
	Accesses *telemetry.Counter

	// ctx carries the run's cancellation signal into replay and
	// parallelFor, which poll it. It lives in Config because the
	// Experiment.Run signature predates cancellation and every exhibit
	// already threads cfg; nil means context.Background.
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
func (c Config) Context() context.Context { return c.context() }

// context returns the run's context, never nil.
func (c Config) context() context.Context {
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

// Experiment is one reproducible paper exhibit.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		Table11(),
		Table21(),
		Table22(),
		Fig22(),
		Fig31(),
		Fig33(),
		Fig35(),
		Fig36(),
		Fig37(),
		Fig41(),
		Fig43(),
		Fig45(),
		Fig46(),
		Fig47(),
		Fig51(),
		Overlap(),
		AblationQuasi(),
		AblationStride(),
		AblationL2Victim(),
		AblationMissCmp(),
		AblationReplacement(),
		AblationAssoc(),
		AblationPrefetchCmp(),
		AblationDepth(),
		AblationWritePolicy(),
		AblationMultiprog(),
		AblationInclusion(),
		AblationLatency(),
		AblationL2Stream(),
		AblationBandwidth(),
		AblationWriteBuffer(),
		IntrospectPhase(),
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

// IDs returns all experiment identifiers, sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
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

// workerPanic carries a panic out of a parallelFor worker goroutine into
// the caller's goroutine with the worker's stack — a bare panic in a
// worker would kill the whole process, bypassing the suite's isolation.
type workerPanic struct {
	val   any
	stack []byte
}

// parallelFor runs fn(i) for i in [0, n) across GOMAXPROCS workers and
// waits. Used for parameter sweeps; each invocation must be independent.
// Cancellation of cfg's context stops the sweep after in-flight items; a
// panicking item re-panics in the caller's goroutine as *workerPanic.
func (cfg Config) parallelFor(n int, fn func(i int)) {
	ctx := cfg.context()
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var (
		wg        sync.WaitGroup
		next      = make(chan int)
		panicOnce sync.Once
		panicked  *workerPanic
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicked = &workerPanic{val: r, stack: debug.Stack()}
					})
					// Keep draining so the feeder never blocks on a
					// channel nobody reads.
					for range next {
					}
				}
			}()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
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
