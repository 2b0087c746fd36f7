package experiments

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/prefetch"
	"jouppi/internal/workload"
)

// This file is the package's one way to replay a trace. An exhibit works
// in three steps: it builds every structure it needs and declares one
// pass per source (a benchmark of the trace set or a generated workload)
// with that pass's runs; it calls cfg.plan once; then it reads the
// structures. plan spreads the passes over workers, and each pass is one
// cfg.replay over its source. Each run applies its structure's per-access
// step in trace order, one reference at a time, so a run's numbers do not
// depend on how many other runs share its pass or how passes are spread.

// run is one structure fed by a replay pass: the references of one side
// (or of the whole trace) go to step. n counts the references it
// simulated.
type run struct {
	side side
	step func(memtrace.Access)
	n    uint64
}

// Consume implements fanout.Consumer.
func (r *run) Consume(chunk []memtrace.Access) {
	n := r.n
	for _, a := range chunk {
		if r.side.keep(a) {
			r.step(a)
			n++
		}
	}
	r.n = n
}

// pass is one replay of one source through its runs. The source is the
// named benchmark of cfg.Traces or, when bench is empty, gen streamed at
// cfg.Scale.
type pass struct {
	bench string
	gen   workload.Benchmark
	runs  []*run
	// instrs is the source's instruction count, set when plan replays
	// the pass; it stays 0 for a pass a cancelled plan never started.
	instrs uint64
}

// plan replays every pass once and returns when all are done. It spreads
// the passes over up to GOMAXPROCS workers, and runs them in the caller's
// goroutine when that is one. Once cfg's context is done no pass starts.
// A panicking run re-panics in the caller's goroutine as the
// *fanout.ConsumerPanic replay raised, for runShielded to report; a
// worker relays any other panic, a generator's, as a *passPanic with
// the stack it panicked on. No further pass starts after it.
func (cfg Config) plan(passes ...*pass) {
	workers := min(runtime.GOMAXPROCS(0), len(passes))
	if workers <= 1 {
		for _, p := range passes {
			cfg.replayPass(p)
		}
		return
	}
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		stop    atomic.Bool
		once    sync.Once
		relayed any
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic must not escape a worker goroutine, where it would
			// end the process; hand it to the caller with its stack.
			defer func() {
				if v := recover(); v != nil {
					stop.Store(true)
					if _, ok := v.(*fanout.ConsumerPanic); !ok {
						v = &passPanic{val: v, stack: debug.Stack()}
					}
					once.Do(func() { relayed = v })
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(passes) {
					return
				}
				cfg.replayPass(passes[i])
			}
		}()
	}
	wg.Wait()
	if relayed != nil {
		panic(relayed)
	}
}

// passPanic is a panic a plan worker recovered, with the stack of the
// worker at panic time: re-panicked bare on the exhibit's goroutine, the
// value would lose the frames that raised it.
type passPanic struct {
	val   any
	stack []byte
}

// eachBench declares one pass per benchmark, in paper order, feeding the
// runs build returns for benchmark b.
func eachBench(build func(b int) []*run) []*pass {
	names := benchNames()
	passes := make([]*pass, len(names))
	for b, name := range names {
		passes[b] = &pass{bench: name, runs: build(b)}
	}
	return passes
}

// replayPass replays p's source through p's runs: the benchmark's
// trace, or the generated workload pushed on this goroutine. A panic of
// the generator's own comes back here once the runs have stopped. It
// replays nothing once cfg's context is done.
func (cfg Config) replayPass(p *pass) {
	if cfg.Context().Err() != nil {
		return
	}
	if p.bench != "" {
		tr := cfg.Traces.Get(p.bench)
		p.instrs = tr.Instructions()
		cfg.replay(tr.Source(), p.runs...)
		return
	}
	var counts memtrace.Counts
	cfg.feed(p.runs, func(ctx context.Context, consumers []fanout.Consumer) error {
		return fanout.Generate(ctx, func(sink memtrace.Sink) {
			p.gen.Generate(cfg.Scale, memtrace.SinkFunc(func(a memtrace.Access) {
				counts.Observe(a)
				sink.Access(a)
			}))
		}, consumers...)
	})
	p.instrs = counts.Instructions()
}

// replay makes one pass over src that feeds every run.
func (cfg Config) replay(src memtrace.Source, runs ...*run) {
	cfg.feed(runs, func(ctx context.Context, consumers []fanout.Consumer) error {
		return fanout.Replay(ctx, src, consumers...)
	})
}

// feed makes one pass through deliver with every run as a consumer:
// inline for one run, on fan-out for several. It reads nothing if cfg's
// context is already done and stops early if it is cancelled mid-pass;
// RunAll discards the partial numbers. It books each run's simulated
// references to cfg.Accesses: a side run books its side's, a system or
// whole-trace run books all of them. A panicking run re-panics as
// *fanout.ConsumerPanic.
func (cfg Config) feed(runs []*run, deliver func(context.Context, []fanout.Consumer) error) {
	ctx := cfg.Context()
	if ctx.Err() != nil {
		return
	}
	consumers := make([]fanout.Consumer, len(runs))
	for i, r := range runs {
		consumers[i] = r
	}
	// The only error a non-nil source and runs can cause is ctx's, which
	// RunAll reports itself.
	_ = deliver(ctx, consumers)
	for _, r := range runs {
		cfg.Accesses.Add(r.n)
	}
}

// feedLevel feeds side s to a cache level.
func feedLevel(s side, fe *core.Level) *run {
	return &run{side: s, step: func(a memtrace.Access) {
		fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
	}}
}

// feedL1 feeds side s to a plain cache and, when cl is non-nil, to its
// 3C classifier.
func feedL1(s side, l1 *cache.Cache, cl *classify.Classifier) *run {
	if cl == nil {
		return &run{side: s, step: func(a memtrace.Access) {
			l1.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		}}
	}
	return &run{side: s, step: func(a memtrace.Access) {
		hit, _ := l1.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		cl.ObserveMiss(uint64(a.Addr), !hit)
	}}
}

// feedPrefetch feeds side s to a classic prefetcher.
func feedPrefetch(s side, fe *prefetch.FrontEnd) *run {
	return &run{side: s, step: func(a memtrace.Access) {
		fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
	}}
}

// feedFunc feeds the whole trace to fn.
func feedFunc(fn func(memtrace.Access)) *run { return &run{side: allRefs, step: fn} }

// feedSystems builds one two-level system per configuration and a run
// that feeds each the whole trace.
func feedSystems(cfgs ...hierarchy.Config) ([]*hierarchy.System, []*run) {
	systems := make([]*hierarchy.System, len(cfgs))
	runs := make([]*run, len(cfgs))
	for i, c := range cfgs {
		systems[i] = hierarchy.MustNew(c)
		runs[i] = feedFunc(systems[i].Access)
	}
	return systems, runs
}

// benchResults replays every benchmark once, in one plan, through one
// two-level system per configuration, and returns each benchmark's
// results in configuration order.
func (cfg Config) benchResults(cfgs ...hierarchy.Config) [][]hierarchy.Results {
	systems := make([][]*hierarchy.System, len(benchNames()))
	passes := eachBench(func(b int) []*run {
		var runs []*run
		systems[b], runs = feedSystems(cfgs...)
		return runs
	})
	cfg.plan(passes...)
	out := make([][]hierarchy.Results, len(systems))
	for b, sys := range systems {
		out[b] = make([]hierarchy.Results, len(sys))
		for i, s := range sys {
			out[b][i] = s.Results(passes[b].instrs)
		}
	}
	return out
}

// level builds a direct-mapped size/lineSize L1 with the structures aux
// declares, at the paper's baseline timing.
func level(size, lineSize int, aux core.Aux) *core.Level {
	l, err := core.NewLevel(cache.MustNew(l1Config(size, lineSize)), aux, nil, core.DefaultTiming())
	if err != nil {
		panic(err)
	}
	return l
}
