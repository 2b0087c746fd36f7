// Package sim is the public entry point of the library: a trace-driven
// simulator for the memory-system techniques of Jouppi's ISCA 1990 paper
// "Improving Direct-Mapped Cache Performance by the Addition of a Small
// Fully-Associative Cache and Prefetch Buffers" — miss caches, victim
// caches, and single-/multi-way stream buffers on top of a two-level
// cache hierarchy — together with the paper's six reconstructed benchmark
// workloads and every evaluation experiment.
//
// Quick use:
//
//	res, err := sim.RunBenchmark("liver", 0.25, sim.ImprovedSystem())
//	fmt.Printf("data miss rate %.3f, %.1f%% of potential performance\n",
//		res.D.MissRate, res.PercentOfPotential)
//
// The zero Config is the paper's baseline system (4KB direct-mapped split
// I/D caches with 16B lines, 1MB L2 with 128B lines, 24/320 instruction-
// time penalties) with no augmentation.
package sim

import (
	"cmp"
	"context"
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/experiments"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
)

// CacheGeometry describes one cache array. Zero values take the paper's
// baseline for that level.
type CacheGeometry struct {
	// Size in bytes; power of two.
	Size int
	// LineSize in bytes; power of two.
	LineSize int
	// Assoc is the set associativity; 1 (direct-mapped) when zero.
	Assoc int
}

// StreamOptions configures a set of stream buffers.
type StreamOptions struct {
	// Ways is the number of parallel buffers (1 = the paper's single
	// sequential buffer; 4 = its multi-way buffer). Zero builds no
	// stream buffers.
	Ways int
	// Depth is entries per buffer; 4 when zero.
	Depth int
	// RunLimit caps lines prefetched per allocation; 0 = unlimited.
	RunLimit int
	// Quasi enables tag comparators on every entry (extension).
	Quasi bool
	// DetectStride enables non-unit-stride detection (extension).
	DetectStride bool
}

// Augmentation attaches the paper's helper structures to one first-level
// cache. At most one of MissCacheEntries / VictimCacheEntries may be set;
// a victim cache may be combined with stream buffers (the paper's §5
// improved data cache), a miss cache may not. Stream counts as stream
// buffers only when its Ways is positive.
type Augmentation struct {
	MissCacheEntries   int
	VictimCacheEntries int
	Stream             *StreamOptions
}

// Config describes a complete simulated system.
type Config struct {
	L1I, L1D, L2 CacheGeometry
	I, D         Augmentation
	// L2VictimEntries places a victim cache behind the L2 (extension).
	L2VictimEntries int
	// L2Stream places stream buffers between the L2 and main memory
	// (extension; §5's second-level future work).
	L2Stream *StreamOptions
	// L1MissPenalty and L2MissPenalty are in instruction times;
	// 24 and 320 when zero.
	L1MissPenalty int
	L2MissPenalty int
}

// BaselineSystem returns the paper's unaugmented baseline configuration.
func BaselineSystem() Config { return Config{} }

// ImprovedSystem returns the paper's §5 improved system: a single stream
// buffer on the instruction cache and a 4-entry victim cache plus 4-way
// stream buffer on the data cache.
func ImprovedSystem() Config {
	return Config{
		I: Augmentation{Stream: &StreamOptions{Ways: 1, Depth: 4}},
		D: Augmentation{VictimCacheEntries: 4, Stream: &StreamOptions{Ways: 4, Depth: 4}},
	}
}

func (g CacheGeometry) toCache(name string, def cache.Config) cache.Config {
	out := def
	out.Name = name
	if g.Size != 0 {
		out.Size = g.Size
	}
	if g.LineSize != 0 {
		out.LineSize = g.LineSize
	}
	if g.Assoc != 0 {
		out.Assoc = g.Assoc
	}
	return out
}

// defaultStreamDepth is the stream buffer depth a zero Depth takes (the
// paper's four entries per buffer).
const defaultStreamDepth = 4

// toAux converts one cache's augmentation. key prefixes the grammar keys
// its errors name: "" for the data side, "i" for the instruction side,
// "l2" for the second level.
func (a Augmentation) toAux(key string) (core.Aux, error) {
	aux := core.Aux{MissCache: a.MissCacheEntries, Victim: a.VictimCacheEntries}
	if a.Stream != nil {
		aux.Stream = core.StreamConfig{
			Ways:         a.Stream.Ways,
			Depth:        cmp.Or(a.Stream.Depth, defaultStreamDepth),
			RunLimit:     a.Stream.RunLimit,
			Quasi:        a.Stream.Quasi,
			DetectStride: a.Stream.DetectStride,
		}
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"misscache", aux.MissCache}, {"victim", aux.Victim},
		{"ways", aux.Stream.Ways}, {"depth", aux.Stream.Depth}, {"runlimit", aux.Stream.RunLimit},
	} {
		if f.n < 0 {
			return core.Aux{}, fmt.Errorf("%s%s must not be negative, got %d", key, f.name, f.n)
		}
	}
	// Stream buffers exist only with at least one way: a depth on its own
	// builds nothing, and is dropped so equal systems compare equal.
	if aux.Stream.Ways == 0 {
		aux.Stream = core.StreamConfig{}
	}
	if aux.MissCache > 0 && (aux.Victim > 0 || aux.Stream.Ways > 0) {
		return core.Aux{}, fmt.Errorf("%[1]smisscache cannot be combined with %[1]svictim or %[1]sways", key)
	}
	return aux, nil
}

// Hierarchy returns the two-level configuration c builds, with every
// default filled in, so two configurations with equal Hierarchy results
// build the same system. Its errors name the configuration grammar's
// keys (see ParseConfig).
func (c Config) Hierarchy() (hierarchy.Config, error) {
	def := hierarchy.DefaultConfig()
	out := hierarchy.Config{
		L1I:    c.L1I.toCache("L1I", def.L1I),
		L1D:    c.L1D.toCache("L1D", def.L1D),
		L2:     c.L2.toCache("L2", def.L2),
		Timing: def.Timing,
		Perf:   def.Perf,
	}
	var err error
	if out.L2Augment, err = (Augmentation{
		VictimCacheEntries: c.L2VictimEntries,
		Stream:             c.L2Stream,
	}).toAux("l2"); err != nil {
		return out, err
	}
	if c.L1MissPenalty != 0 {
		out.Timing.MissPenalty = c.L1MissPenalty
		out.Timing.FillLatency = c.L1MissPenalty
		out.Perf.L1MissPenalty = c.L1MissPenalty
	}
	if c.L2MissPenalty != 0 {
		out.Perf.L2MissPenalty = c.L2MissPenalty
	}
	if out.IAugment, err = c.I.toAux("i"); err != nil {
		return out, err
	}
	if out.DAugment, err = c.D.toAux(""); err != nil {
		return out, err
	}
	return out, nil
}

// SideResults summarizes one first-level cache's behaviour.
type SideResults struct {
	Accesses uint64
	// Misses are L1 misses before augmentation credit; FullMisses are
	// the misses that still required a next-level fetch.
	Misses     uint64
	FullMisses uint64
	// AuxHits are L1 misses satisfied by an augmentation, broken down
	// into victim-cache, miss-cache, and stream-buffer hits.
	AuxHits       uint64
	VictimHits    uint64
	MissCacheHits uint64
	StreamHits    uint64
	// MissRate is FullMisses/Accesses.
	MissRate float64
}

// Results summarizes a simulation run.
type Results struct {
	Instructions uint64
	I, D         SideResults
	// L2DemandAccesses/Misses cover demand traffic only; prefetch
	// traffic is reported separately.
	L2DemandAccesses   uint64
	L2DemandMisses     uint64
	L2PrefetchAccesses uint64
	// TotalTime is execution time in instruction times under the
	// paper's performance model; PercentOfPotential is
	// Instructions/TotalTime×100.
	TotalTime          uint64
	PercentOfPotential float64
}

func sideResults(s core.Stats) SideResults {
	return SideResults{
		Accesses:      s.Accesses,
		Misses:        s.L1Misses,
		FullMisses:    s.FullMisses(),
		AuxHits:       s.AuxHits,
		VictimHits:    s.VictimHits,
		MissCacheHits: s.MissCacheHits,
		StreamHits:    s.StreamHits,
		MissRate:      s.MissRate(),
	}
}

func toResults(r hierarchy.Results) Results {
	return Results{
		Instructions:       r.Instructions,
		I:                  sideResults(r.I),
		D:                  sideResults(r.D),
		L2DemandAccesses:   r.L2I.DemandAccesses + r.L2D.DemandAccesses,
		L2DemandMisses:     r.L2I.DemandMisses + r.L2D.DemandMisses,
		L2PrefetchAccesses: r.L2I.PrefetchAccesses + r.L2D.PrefetchAccesses,
		TotalTime:          r.Breakdown.Total(),
		PercentOfPotential: r.Breakdown.PercentOfPotential(),
	}
}

// Speedup returns how much faster b is than a (ratio of total times).
func Speedup(a, b Results) float64 {
	if b.TotalTime == 0 {
		return 0
	}
	return float64(a.TotalTime) / float64(b.TotalTime)
}

// System is a runnable simulated memory system fed one access at a time.
type System struct {
	sys          *hierarchy.System
	instructions uint64
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) (*System, error) {
	hc, err := cfg.Hierarchy()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	sys, err := hierarchy.New(hc)
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// Ifetch simulates an instruction fetch at addr.
func (s *System) Ifetch(addr uint64) {
	s.instructions++
	s.sys.Access(memtrace.Access{Addr: memtrace.Addr(addr), Kind: memtrace.Ifetch})
}

// Load simulates a data load at addr.
func (s *System) Load(addr uint64) {
	s.sys.Access(memtrace.Access{Addr: memtrace.Addr(addr), Kind: memtrace.Load})
}

// Store simulates a data store at addr.
func (s *System) Store(addr uint64) {
	s.sys.Access(memtrace.Access{Addr: memtrace.Addr(addr), Kind: memtrace.Store})
}

// Results returns the accumulated counters and performance model output.
func (s *System) Results() Results {
	return toResults(s.sys.Results(s.instructions))
}

// AttachTelemetry registers the system's live counters (per-side
// reference outcomes, second-level and memory traffic, per-array cache
// activity) in reg and starts feeding them; see the Observability section
// of the repository docs for the metric names. A nil registry detaches.
// Attach before the replay starts; counters are atomic, so a concurrent
// /metrics scrape during the run is safe.
func (s *System) AttachTelemetry(reg *telemetry.Registry) { s.sys.AttachTelemetry(reg) }

// Benchmarks returns the names of the paper's six workloads, in paper
// order, plus the auxiliary workloads ("strided", "ptrchase").
func Benchmarks() []string {
	return append(workload.Names(), "strided", "ptrchase")
}

// BenchmarkDescription returns the Table 2-1 program-type string.
func BenchmarkDescription(name string) (string, error) {
	b, err := benchmark(name)
	if err != nil {
		return "", err
	}
	return b.Description(), nil
}

func benchmark(name string) (workload.Benchmark, error) {
	switch name {
	case "strided":
		return workload.Strided(), nil
	case "ptrchase":
		return workload.PointerChase(), nil
	}
	if b, ok := workload.ByName(name); ok {
		return b, nil
	}
	return nil, fmt.Errorf("sim: unknown benchmark %q (have %v)", name, Benchmarks())
}

// RunBenchmark replays the named workload at the given scale through a
// system built from cfg; see Benchmark and Replay.
func RunBenchmark(name string, scale float64, cfg Config) (Results, error) {
	src, err := Benchmark(name, scale)
	if err != nil {
		return Results{}, err
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		return Results{}, err
	}
	if err := Replay(context.Background(), src, sys); err != nil {
		return Results{}, err
	}
	return sys.Results(), nil
}

// ExperimentInfo names one reproducible paper exhibit.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists every table/figure reproduction and ablation study.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// RunExperiment runs one experiment by ID at the given workload scale and
// returns its rendered text output.
func RunExperiment(id string, scale float64) (string, error) {
	return RunExperimentContext(context.Background(), id, scale)
}

// RunExperimentContext is RunExperiment with cooperative cancellation and
// panic isolation: a cancelled context or a crashing experiment returns
// an error instead of hanging the caller or killing the process.
func RunExperimentContext(ctx context.Context, id string, scale float64) (string, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("sim: unknown experiment %q (have %v)", id, experiments.IDs())
	}
	results, err := experiments.RunAll(ctx, experiments.Config{Scale: scale},
		experiments.RunOptions{Experiments: []experiments.Experiment{e}})
	if err != nil {
		return "", err
	}
	res := results[0]
	if res.Failed() {
		return "", fmt.Errorf("sim: experiment %s failed: %s", id, res.Err)
	}
	return res.Title + "\n\n" + res.Text, nil
}
