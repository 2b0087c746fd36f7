package main

import (
	"fmt"
	"io"

	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
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

// levelConsumer replays every reference of each chunk into one front
// end; the side was picked out before the chunk was filled. cl, when
// set, classifies the plain cache's misses; tel, when set, publishes the
// level's counters after every chunk.
type levelConsumer struct {
	fe  *core.Level
	cl  *classify.Classifier
	tel *core.Counters
}

// Consume replays one chunk. The classifying loop is kept apart, so the
// plain loop that every -fanout configuration runs carries no
// per-access test for it.
func (c *levelConsumer) Consume(chunk []memtrace.Access) {
	if c.cl == nil {
		for _, a := range chunk {
			c.fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		}
	} else {
		for _, a := range chunk {
			r := c.fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
			c.cl.ObserveMiss(uint64(a.Addr), !r.L1Hit)
		}
	}
	if c.tel != nil {
		c.tel.Publish(c.fe.Stats())
		c.fe.Cache().FlushTelemetry()
		if c.cl != nil {
			c.cl.Flush()
		}
	}
}

// printFanout prints the -fanout table: one summary row per
// configuration.
func printFanout(stdout io.Writer, labels []string, fes []*core.Level) {
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
}
