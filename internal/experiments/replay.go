package experiments

import (
	"fmt"
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
	"jouppi/internal/workload"
)

// This file is the package's one way to replay a trace. An exhibit builds
// every structure it needs and declares one pass per source (a benchmark
// of the trace set or a generated workload) with that pass's runs; it
// calls cfg.plan once; then it reads the structures. A run is one
// consumer of its pass's chunks behind a side filter, of one of three
// kinds: a group of levels on one write-through cache, which probes and
// fills the cache once per reference for all of them (group); the
// clusters hierarchy.Clusters makes of two-level systems (clustered); or
// a step that takes any other structure one reference at a time
// (feedFunc). Each kind leaves its structures as replaying each alone
// would, so a run's numbers do not depend on what shares its pass.

// run is one consumer of a replay pass: the references of one side (or
// of the whole trace) go to feed a chunk at a time. weight is the number
// of structures feed simulates; n counts the references the run books,
// each once per structure.
type run struct {
	side   side
	feed   func([]memtrace.Access)
	weight uint64
	n      uint64
	buf    []memtrace.Access // the side's references of the last chunk
	// release, when non-nil, ends the clusters the run belongs to; plan
	// calls it once every pass has ended.
	release func()
}

// Consume implements fanout.Consumer.
func (r *run) Consume(chunk []memtrace.Access) {
	if r.side != allRefs {
		buf := r.buf[:0]
		for _, a := range chunk {
			if r.side.keep(a) {
				buf = append(buf, a)
			}
		}
		r.buf, chunk = buf, buf
	}
	r.n += r.weight * uint64(len(chunk))
	r.feed(chunk)
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
// the stack it panicked on. No further pass starts after it. plan
// releases every run's clusters when it returns, also when it panics.
func (cfg Config) plan(passes ...*pass) {
	defer func() {
		for _, p := range passes {
			for _, r := range p.runs {
				if r.release != nil {
					r.release()
				}
			}
		}
	}()
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

// replayPass makes one pass over p's source with every run as a fan-out
// consumer (inline for one run): the benchmark's trace, or the generated
// workload pushed on this goroutine, whose own panic comes back here
// once the runs have stopped. It reads nothing if cfg's context is
// already done and stops early if it is cancelled mid-pass; RunAll
// discards the partial numbers. It then books each run's references to
// cfg.Accesses: those of the run's side (or all of them), once per
// structure the run feeds. A panicking run re-panics as
// *fanout.ConsumerPanic.
func (cfg Config) replayPass(p *pass) {
	ctx := cfg.Context()
	if ctx.Err() != nil {
		return
	}
	consumers := make([]fanout.Consumer, len(p.runs))
	for i, r := range p.runs {
		consumers[i] = r
	}
	// The only error a source and runs can cause is ctx's, which RunAll
	// reports itself.
	if p.bench != "" {
		tr := cfg.Traces.Get(p.bench)
		p.instrs = tr.Instructions()
		_ = fanout.Replay(ctx, tr.Source(), consumers...)
	} else {
		var counts memtrace.Counts
		_ = fanout.Generate(ctx, func(sink memtrace.Sink) {
			p.gen.Generate(cfg.Scale, memtrace.SinkFunc(func(a memtrace.Access) {
				counts.Observe(a)
				sink.Access(a)
			}))
		}, consumers...)
		p.instrs = counts.Instructions()
	}
	for _, r := range p.runs {
		cfg.Accesses.Add(r.n)
	}
}

// group feeds side s to levels that are all on one write-through cache
// through one core.Group, a chunk at a time: the cache is probed and
// filled once per reference for every level, and its Stats are what a
// plain cache fed the side would hold. cl, when non-nil, classifies
// each reference as the cache resolves it. The run books once per level.
func group(s side, cl *classify.Classifier, levels ...*core.Level) *run {
	gs, err := core.Groups(levels...)
	if err == nil && len(gs) != 1 {
		err = fmt.Errorf("experiments: %d levels on %d caches, want one", len(levels), len(gs))
	}
	if err != nil {
		panic(err)
	}
	var observe func(int, bool)
	var chunk []memtrace.Access
	if cl != nil {
		observe = func(i int, hit bool) { cl.ObserveMiss(uint64(chunk[i].Addr), !hit) }
	}
	return &run{side: s, weight: uint64(len(levels)), feed: func(c []memtrace.Access) {
		chunk = c
		gs[0].AccessChunk(c, observe)
	}}
}

// feedL1 feeds side s to a plain cache and, when cl is non-nil, to its
// 3C classifier.
func feedL1(s side, l1 *cache.Cache, cl *classify.Classifier) *run {
	return feedFunc(s, func(a memtrace.Access) {
		hit, _ := l1.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		if cl != nil {
			cl.ObserveMiss(uint64(a.Addr), !hit)
		}
	})
}

// feedFunc feeds side s to fn, one reference at a time: the run for a
// structure that is neither a core.Level nor a hierarchy.System.
func feedFunc(s side, fn func(memtrace.Access)) *run {
	return &run{side: s, weight: 1, feed: func(chunk []memtrace.Access) {
		for _, a := range chunk {
			fn(a)
		}
	}}
}

// newSystems builds one two-level system per configuration.
func newSystems(cfgs ...hierarchy.Config) []*hierarchy.System {
	systems := make([]*hierarchy.System, len(cfgs))
	for i, c := range cfgs {
		systems[i] = hierarchy.MustNew(c)
	}
	return systems
}

// clustered hands systems to hierarchy.Clusters and returns one run per
// cluster, each fed the whole trace; plan releases the clusters. The
// runs book each reference once per system: Clusters does not say which
// systems a cluster holds, but every cluster takes every reference, so
// the first run books for the systems beyond one per cluster.
func clustered(systems ...*hierarchy.System) []*run {
	clusters, release := hierarchy.Clusters(systems...)
	runs := make([]*run, len(clusters))
	for i, c := range clusters {
		runs[i] = &run{side: allRefs, weight: 1, feed: c.Consume}
	}
	runs[0].weight += uint64(len(systems) - len(clusters))
	runs[0].release = release
	return runs
}

// benchResults replays every benchmark once, in one plan, through one
// two-level system per configuration, and returns each benchmark's
// results in configuration order.
func (cfg Config) benchResults(cfgs ...hierarchy.Config) [][]hierarchy.Results {
	systems := make([][]*hierarchy.System, len(benchNames()))
	passes := eachBench(func(b int) []*run {
		systems[b] = newSystems(cfgs...)
		return clustered(systems[b]...)
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

// level puts the structures aux declares on l1, at the paper's baseline
// timing.
func level(l1 *cache.Cache, aux core.Aux) *core.Level {
	l, err := core.NewLevel(l1, aux, nil, core.DefaultTiming())
	if err != nil {
		panic(err)
	}
	return l
}
