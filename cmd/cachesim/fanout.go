package main

import (
	"context"
	"fmt"
	"io"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/sim"
)

// frontEnds parses list over base (the main-flag configuration) and
// builds each configuration's front end. The single replay is the empty
// list.
func frontEnds(list string, base sim.Config) ([]string, []*core.Level, error) {
	cfgs, err := sim.ParseConfigs(list, base)
	if err != nil {
		return nil, nil, err
	}
	var labels []string
	var fes []*core.Level
	for _, c := range cfgs {
		fe, err := frontEnd(c.Config, base)
		if err != nil {
			return nil, nil, fmt.Errorf("config %q: %w", c.Label, err)
		}
		labels, fes = append(labels, c.Label), append(fes, fe)
	}
	return labels, fes, nil
}

// frontEnd builds the one cache cachesim replays: the data side of cfg.
// cachesim has no instruction side and no L2, so a spec that would
// change either is an error rather than ignored.
func frontEnd(cfg, base sim.Config) (*core.Level, error) {
	rest := cfg
	rest.L1D, rest.D = base.L1D, base.D
	// size, line and assoc set both sides: the I side may follow the D side.
	if rest.L1I.Size == cfg.L1D.Size {
		rest.L1I.Size = base.L1I.Size
	}
	if rest.L1I.LineSize == cfg.L1D.LineSize {
		rest.L1I.LineSize = base.L1I.LineSize
	}
	if rest.L1I.Assoc == cfg.L1D.Assoc {
		rest.L1I.Assoc = base.L1I.Assoc
	}
	if sim.Format(rest) != sim.Format(base) {
		return nil, fmt.Errorf("cachesim replays one cache; it takes no instruction-side or L2 keys (have size, line, assoc, misscache, victim, ways, depth, quasi, stride)")
	}
	hc, err := cfg.Hierarchy()
	if err != nil {
		return nil, err
	}
	hc.L1D.Name = "L1"
	l1, err := cache.New(hc.L1D)
	if err != nil {
		return nil, err
	}
	return core.NewLevel(l1, hc.DAugment, nil, hc.Timing)
}

// feConsumer replays the kept references of each broadcast chunk into one
// front end.
type feConsumer struct {
	fe   *core.Level
	keep func(memtrace.Access) bool
}

func (c *feConsumer) Consume(chunk []memtrace.Access) {
	for _, a := range chunk {
		if c.keep(a) {
			c.fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		}
	}
}

// runFanout decodes the trace once and replays it through every spec'd
// configuration via the fan-out engine, printing one summary row per
// configuration. Statistics are bit-identical to running cachesim once
// per configuration; the decode cost is paid once.
func runFanout(stdout, stderr io.Writer, labels []string, fes []*core.Level,
	src memtrace.Source, keep func(memtrace.Access) bool,
	reg *telemetry.Registry, srcErr func() error,
	degr func() memtrace.Degradation, lenient bool) int {
	consumers := make([]fanout.Consumer, len(fes))
	for i, fe := range fes {
		consumers[i] = &feConsumer{fe: fe, keep: keep}
	}

	eng := fanout.New(fanout.Config{})
	eng.AttachTelemetry(reg)
	if err := eng.Replay(context.Background(), src, consumers...); err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}
	if err := srcErr(); err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}
	if lenient {
		memtrace.PublishDegradation(reg, degr())
		fmt.Fprintf(stdout, "degradation:     %s\n", degr())
	}

	fmt.Fprintf(stdout, "fan-out replay:  %d configurations, one trace pass\n", len(fes))
	wid := len("config")
	for _, l := range labels {
		if len(l) > wid {
			wid = len(l)
		}
	}
	fmt.Fprintf(stdout, "%-*s  %12s  %12s  %12s  %12s  %10s\n",
		wid, "config", "accesses", "L1 misses", "aux hits", "full misses", "miss rate")
	for i, fe := range fes {
		st := fe.Stats()
		fmt.Fprintf(stdout, "%-*s  %12d  %12d  %12d  %12d  %10.4f\n",
			wid, labels[i], st.Accesses, st.L1Misses, st.AuxHits, st.FullMisses(), st.MissRate())
	}
	return 0
}
