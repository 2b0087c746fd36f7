package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The traced run times each layer from outside: calls into one layer's
// public functions through layers.go, and the programs' own processes
// and job spans. Nothing is added inside the programs.

// ladder holds the per-layer metrics and the layer times the op models of
// the cli workloads are built from.
type ladder struct {
	m metrics
	// startup is a cachesim start-up; dinDecode and jtrDecode decode the
	// cli-din and cli-sweep files; dinCore simulates cli-din's
	// configuration and sweepCore all of cli-sweep's, one after another.
	startup, dinDecode, jtrDecode, dinCore, sweepCore time.Duration
}

// medianTime calls fn reps times as a span of layer and returns the
// median duration.
func medianTime(tr *tracer, reps int, layer, name string, fn func() error) (time.Duration, error) {
	var ds []float64
	for range reps {
		d, err := tr.timed(layer, name, fn)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", layer, name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perUnit is nanoseconds per unit of work.
func perUnit(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// processSample runs n ops of a cli fixture, as ladder rung spans, and
// returns the median op time at reference speed.
func processSample(ctx context.Context, tr *tracer, n int, name string, fx *fixture) (time.Duration, error) {
	var ws []float64
	for range n {
		speed, err := hostSpeed()
		if err != nil {
			return 0, err
		}
		o := fx.op(ctx, nil)
		if o.err != nil {
			return 0, o.err
		}
		tr.add(-1, "proc", name, o.start, o.end, -1)
		ws = append(ws, float64(refWall(o.wall(), speed)))
	}
	return time.Duration(median(ws)), nil
}

func runLadder(ctx context.Context, e *env, tr *tracer) (*ladder, error) {
	l := &ladder{m: metrics{}}
	sub := func(name string) (string, error) {
		dir := filepath.Join(e.work, "ladder", name)
		return dir, os.MkdirAll(dir, 0o755)
	}
	dir, err := sub("cli-din")
	if err != nil {
		return nil, err
	}
	din, err := prepareCLI(e, dir, false)
	if err != nil {
		return nil, err
	}
	defer din.close()
	if dir, err = sub("cli-sweep"); err != nil {
		return nil, err
	}
	sweep, err := prepareCLI(e, dir, true)
	if err != nil {
		return nil, err
	}
	defer sweep.close()
	reps := e.sz.reps

	// proc: what starting a process costs every cli op.
	sp, err := startSpawner(e.bin)
	if err != nil {
		return nil, err
	}
	defer sp.close()
	cachesim := filepath.Join(e.bin, "cachesim")
	if l.startup, err = medianTime(tr, e.sz.sample, "proc", "cachesim -version", func() error {
		_, err := sp.run(cachesim, "-version")
		return err
	}); err != nil {
		return nil, err
	}
	l.m.set("proc.startup_ms", ms(l.startup), "ms")

	// memtrace: decoding the cli trace files as cachesim streams them.
	decode := func(fx *fixture, format string) func() error {
		return func() error {
			n, err := decodeFile(fx.path, format)
			if err == nil && n != len(fx.refs) {
				err = fmt.Errorf("decoded %d records of %d", n, len(fx.refs))
			}
			return err
		}
	}
	if l.dinDecode, err = medianTime(tr, reps, "memtrace", "decode din", decode(din, "din")); err != nil {
		return nil, err
	}
	if l.jtrDecode, err = medianTime(tr, reps, "memtrace", "decode jtr1", decode(sweep, "jtr")); err != nil {
		return nil, err
	}
	l.m.set("memtrace.din_ns_per_rec", perUnit(l.dinDecode, len(din.refs)), "ns")
	l.m.set("memtrace.jtr1_ns_per_rec", perUnit(l.jtrDecode, len(sweep.refs)), "ns")

	// workload: generating the built-in workloads svc-mixed's jobs run.
	var generated uint64
	gen, err := medianTime(tr, reps, "workload", "generate", func() error {
		generated = 0
		for _, b := range mixedBenchmarks {
			n, err := generateBenchmark(b, mixedScale)
			if err != nil {
				return err
			}
			generated += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.m.set("workload.gen_ns_per_acc", perUnit(gen, int(generated)), "ns")

	// core: each front end of the sweep over cli-sweep's data references,
	// and cli-din's over its own.
	sweepData := dataRefs(sweep.refs)
	for _, c := range sweepConfigs {
		name := configName(c.spec)
		var st feNums
		d, err := medianTime(tr, reps, "core", name, func() error {
			st = replayFrontEnd(c, sweepData)
			return nil
		})
		if err != nil {
			return nil, err
		}
		l.sweepCore += d
		l.m.set("core."+name+"_ns_per_acc", perUnit(d, len(sweepData)), "ns")
		if c.missCache+c.victim+c.ways > 0 {
			l.m.set("core."+name+"_aux_hit_ratio", ratio(st.AuxHits, st.L1Misses), "fraction")
		}
		if c.ways > 0 {
			l.m.set("core."+name+"_prefetch_accuracy", ratio(st.PrefetchUsed, st.PrefetchIssued), "fraction")
		}
	}
	dinData := dataRefs(din.refs)
	if l.dinCore, err = medianTime(tr, reps, "core", "cli-din "+configName(dinConfig.spec), func() error {
		replayFrontEnd(dinConfig, dinData)
		return nil
	}); err != nil {
		return nil, err
	}

	// dispatch: the fan-out process against the same work done one piece
	// after another, decoding once or once per configuration; what is
	// left of its time once start-up, decode and simulation are taken
	// out is the fan-out's own cost.
	sweepOp, err := processSample(ctx, tr, e.sz.sample, "cli-sweep op", sweep)
	if err != nil {
		return nil, err
	}
	perConfig := time.Duration(len(sweepConfigs))*(l.startup+l.jtrDecode) + l.sweepCore
	l.m.set("dispatch.speedup", float64(l.opModel("cli-sweep"))/float64(sweepOp), "x")
	l.m.set("dispatch.vs_per_config_speedup", float64(perConfig)/float64(sweepOp), "x")
	l.m.set("dispatch.residual_ms", ms(sweepOp-l.opModel("cli-sweep")), "ms")
	dinOp, err := processSample(ctx, tr, e.sz.sample, "cli-din op", din)
	if err != nil {
		return nil, err
	}
	l.m.set("memtrace.decode_share", float64(l.dinDecode)/float64(dinOp), "fraction")

	// hierarchy: each svc-upload system over the upload trace.
	refs := genTrace(e.seed, streamUpload, e.sz.uploadRecords)
	for _, spec := range uploadSpecs {
		var r sysNums
		d, err := medianTime(tr, reps, "hierarchy", configName(spec), func() error {
			var err error
			r, err = replaySystem(spec, refs)
			return err
		})
		if err != nil {
			return nil, err
		}
		l.m.set("hierarchy."+configName(spec)+"_ns_per_acc", perUnit(d, len(refs)), "ns")
		if spec == "sys=improved" {
			l.m.set("hierarchy.l2_demand_miss_ratio", ratio(r.L2DemandMisses, r.L2DemandAccesses), "fraction")
			l.m.set("hierarchy.improved_sim_tpi", ratio(r.TotalTime, r.Instructions), "itimes/instr")
		}
	}
	return l, nil
}

// opModel is what the ladder attributes to one op of a cli workload done
// one piece after another: start-up, one decode, and each
// configuration's simulation.
func (l *ladder) opModel(workload string) time.Duration {
	if workload == "cli-sweep" {
		return l.startup + l.jtrDecode + l.sweepCore
	}
	return l.startup + l.dinDecode + l.dinCore
}
