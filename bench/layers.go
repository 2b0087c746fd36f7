package main

// This file is the benchmark's only door into the simulator's packages:
// the reference replays of the oracle and the timed calls of the traced
// run go through it. It uses the sim facade and the memtrace, core and
// cache packages alone. The fan-out, sharded-replay, hierarchy and
// experiments packages are due to be merged or replaced, so reaching
// into them would tie the benchmark to code that is about to move.

import (
	"bytes"
	"fmt"
	"os"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/sim"
)

func memAccess(a access) memtrace.Access {
	k := memtrace.Ifetch
	switch a.kind {
	case load:
		k = memtrace.Load
	case store:
		k = memtrace.Store
	}
	return memtrace.Access{Addr: memtrace.Addr(a.addr), Kind: k}
}

// encodeTrace renders refs as a trace file in format "din" or "jtr".
func encodeTrace(refs []access, format string) ([]byte, error) {
	t := memtrace.NewTrace(len(refs))
	for _, a := range refs {
		t.Append(memAccess(a))
	}
	var buf bytes.Buffer
	var err error
	switch format {
	case "din":
		_, err = t.WriteDinero(&buf)
	case "jtr":
		_, err = t.WriteTo(&buf)
	default:
		err = fmt.Errorf("unknown trace format %q", format)
	}
	return buf.Bytes(), err
}

// decodeFile streams the trace file at path through its format's decoder,
// as cachesim reads it, and returns the record count.
func decodeFile(path, format string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var (
		src    memtrace.Source
		srcErr func() error
	)
	switch format {
	case "din":
		dr := memtrace.NewDineroReader(f)
		src, srcErr = dr, dr.Err
	case "jtr":
		r, err := memtrace.NewReader(f)
		if err != nil {
			return 0, err
		}
		src, srcErr = r, r.Err
	default:
		return 0, fmt.Errorf("unknown trace format %q", format)
	}
	n := 0
	memtrace.Each(src, func(memtrace.Access) { n++ })
	return n, srcErr()
}

// feConfig is one cachesim configuration: its -fanout spec and the
// fields the spec sets over cachesim's defaults (a 4 KiB direct-mapped
// L1 with 16-byte lines, depth-4 stream buffers).
type feConfig struct {
	spec                           string
	assoc, missCache, victim, ways int
}

// replayFrontEnd builds the configuration's front end as cachesim does,
// replays refs through it, and returns the counters cachesim prints.
func replayFrontEnd(c feConfig, refs []access) feNums {
	l1 := cache.MustNew(cache.Config{Name: "L1", Size: 4096, LineSize: 16, Assoc: max(c.assoc, 1)})
	timing := core.DefaultTiming()
	stream := core.StreamConfig{Ways: c.ways, Depth: 4}
	var fe core.FrontEnd
	switch {
	case c.missCache > 0:
		fe = core.NewMissCache(l1, c.missCache, nil, timing)
	case c.victim > 0 && c.ways > 0:
		fe = core.NewCombined(l1, c.victim, stream, nil, timing)
	case c.victim > 0:
		fe = core.NewVictimCache(l1, c.victim, nil, timing)
	case c.ways > 0:
		fe = core.NewStreamBuffer(l1, stream, nil, timing)
	default:
		fe = core.NewBaseline(l1, nil, timing)
	}
	for _, a := range refs {
		fe.Access(a.addr, a.kind == store)
	}
	st := fe.Stats()
	return feNums{
		Accesses: st.Accesses, L1Hits: st.L1Hits, L1Misses: st.L1Misses,
		AuxHits: st.AuxHits, VictimHits: st.VictimHits, MissCacheHits: st.MissCacheHits,
		StreamHits: st.StreamHits, FullMisses: st.FullMisses(),
		PrefetchIssued: st.PrefetchIssued, PrefetchUsed: st.PrefetchUsed,
		StallCycles: st.StallCycles,
	}
}

// simConfig is the system a cachesimd config spec names, built through
// the sim facade rather than the daemon's parser, so the oracle checks
// the parser too.
func simConfig(spec string) (sim.Config, error) {
	switch spec {
	case "sys=baseline":
		return sim.BaselineSystem(), nil
	case "sys=improved":
		return sim.ImprovedSystem(), nil
	case "victim=4":
		return sim.Config{D: sim.Augmentation{VictimCacheEntries: 4}}, nil
	case "misscache=4":
		return sim.Config{D: sim.Augmentation{MissCacheEntries: 4}}, nil
	case "ways=4":
		return sim.Config{D: sim.Augmentation{Stream: &sim.StreamOptions{Ways: 4}}}, nil
	}
	return sim.Config{}, fmt.Errorf("no reference system for config %q", spec)
}

// replaySystem replays refs through the full system spec names.
func replaySystem(spec string, refs []access) (sysNums, error) {
	cfg, err := simConfig(spec)
	if err != nil {
		return sysNums{}, err
	}
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return sysNums{}, err
	}
	for _, a := range refs {
		switch a.kind {
		case ifetch:
			sys.Ifetch(a.addr)
		case load:
			sys.Load(a.addr)
		default:
			sys.Store(a.addr)
		}
	}
	return fromResults(sys.Results()), nil
}

// runBenchmark generates a built-in workload straight into the system
// spec names.
func runBenchmark(bench string, scale float64, spec string) (sysNums, error) {
	cfg, err := simConfig(spec)
	if err != nil {
		return sysNums{}, err
	}
	r, err := sim.RunBenchmark(bench, scale, cfg)
	return fromResults(r), err
}

// generateBenchmark runs a built-in workload's generator alone and
// returns the number of references it produced.
func generateBenchmark(bench string, scale float64) (uint64, error) {
	var n uint64
	err := sim.VisitBenchmark(bench, scale, func(sim.AccessKind, uint64) { n++ })
	return n, err
}

func fromSide(s sim.SideResults) sideNums {
	return sideNums{
		Accesses: s.Accesses, Misses: s.Misses, FullMisses: s.FullMisses,
		AuxHits: s.AuxHits, VictimHits: s.VictimHits, MissCacheHits: s.MissCacheHits,
		StreamHits: s.StreamHits, MissRate: s.MissRate,
	}
}

func fromResults(r sim.Results) sysNums {
	return sysNums{
		Instructions: r.Instructions, I: fromSide(r.I), D: fromSide(r.D),
		L2DemandAccesses: r.L2DemandAccesses, L2DemandMisses: r.L2DemandMisses,
		L2PrefetchAccesses: r.L2PrefetchAccesses, TotalTime: r.TotalTime,
		PercentOfPotential: r.PercentOfPotential,
	}
}
