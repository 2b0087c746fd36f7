package experiments

import (
	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/prefetch"
)

// This file is the package's one way to replay a trace. An exhibit builds
// every run it needs on a trace, then makes one pass over it with
// cfg.replay; parallelFor spreads the passes over benchmarks (or over
// generated traces). Each run applies its structure's per-access step in
// trace order, one reference at a time, so a run's numbers do not depend
// on how many other runs share its pass.

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

// replay makes one pass over src that feeds every run: inline for one
// run, on fan-out for several. It reads nothing if cfg's context is
// already done and stops early if it is cancelled mid-pass; RunAll
// discards the partial numbers. It books each run's simulated references
// to cfg.Accesses: a side run books its side's, a system or whole-trace
// run books all of them. A panicking run re-panics as
// *fanout.ConsumerPanic, which parallelFor and runShielded relay.
func (cfg Config) replay(src memtrace.Source, runs ...*run) {
	ctx := cfg.context()
	if ctx.Err() != nil {
		return
	}
	consumers := make([]fanout.Consumer, len(runs))
	for i, r := range runs {
		consumers[i] = r
	}
	// The only error a non-nil source and runs can cause is ctx's, which
	// RunAll reports itself.
	_ = fanout.Replay(ctx, src, consumers...)
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

// systemResults replays the named benchmark once through one system per
// configuration and returns their results in order.
func (cfg Config) systemResults(name string, cfgs ...hierarchy.Config) []hierarchy.Results {
	tr := cfg.Traces.Get(name)
	systems, runs := feedSystems(cfgs...)
	cfg.replay(tr.Source(), runs...)
	out := make([]hierarchy.Results, len(systems))
	for i, sys := range systems {
		out[i] = sys.Results(tr.Instructions())
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
