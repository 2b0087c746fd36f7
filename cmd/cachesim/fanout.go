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

// frontEnds parses list over base (the main-flag configuration), builds
// each configuration's front end, and groups them by cache (see
// core.Groups): configurations with equal caches share one. The single
// replay is the empty list.
func frontEnds(list string, base sim.Config) ([]string, []*core.Level, []*core.Group, error) {
	cfgs, err := sim.ParseConfigs(list, base)
	if err != nil {
		return nil, nil, nil, err
	}
	var labels []string
	var fes []*core.Level
	l1s := map[cache.Config]*cache.Cache{}
	for _, c := range cfgs {
		fe, err := frontEnd(c.Config, base, l1s)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("config %q: %w", c.Label, err)
		}
		labels, fes = append(labels, c.Label), append(fes, fe)
	}
	groups, err := core.Groups(fes...)
	return labels, fes, groups, err
}

// frontEnd builds the one cache cachesim replays, the data side of cfg,
// on the cache of its configuration in l1s, adding it if missing.
// cachesim has no instruction side and no L2, so a spec that would
// change either is an error rather than ignored.
func frontEnd(cfg, base sim.Config, l1s map[cache.Config]*cache.Cache) (*core.Level, error) {
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
	l1 := l1s[hc.L1D]
	if l1 == nil {
		if l1, err = cache.New(hc.L1D); err != nil {
			return nil, err
		}
		l1s[hc.L1D] = l1
	}
	return core.NewLevel(l1, hc.DAugment, nil, hc.Timing)
}

// groupConsumer replays every reference of each chunk into one group
// of front ends; the side was picked out before the chunk was filled.
// cl, when set, classifies the plain cache's misses.
type groupConsumer struct {
	g  *core.Group
	cl *classify.Classifier
}

// Consume replays one chunk through the group's chunk path, then
// flushes the group's levels and the classifier, so their counters,
// when instrumented, lag the replay by at most one chunk. The classifier
// observes each reference as the level resolves it, so a sampled miss
// the level's probe tags reads the class counted for it.
func (c *groupConsumer) Consume(chunk []memtrace.Access) {
	if c.cl == nil {
		c.g.AccessChunk(chunk, nil)
	} else {
		c.g.AccessChunk(chunk, func(i int, hit bool) {
			c.cl.ObserveMiss(uint64(chunk[i].Addr), !hit)
		})
	}
	c.g.Flush()
	if c.cl != nil {
		c.cl.Flush()
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
