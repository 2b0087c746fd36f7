package hierarchy

import (
	"math/rand"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
)

func TestDefaultConfigIsPaperBaseline(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1I.Size != 4096 || cfg.L1I.LineSize != 16 || cfg.L1I.Assoc != 1 {
		t.Errorf("L1I = %+v", cfg.L1I)
	}
	if cfg.L1D.Size != 4096 || cfg.L1D.LineSize != 16 {
		t.Errorf("L1D = %+v", cfg.L1D)
	}
	if cfg.L2.Size != 1<<20 || cfg.L2.LineSize != 128 {
		t.Errorf("L2 = %+v", cfg.L2)
	}
	if cfg.Perf.L1MissPenalty != 24 || cfg.Perf.L2MissPenalty != 320 {
		t.Errorf("Perf = %+v", cfg.Perf)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	// Validate rejects exactly what New rejects, without building it.
	rejected := func(c Config) bool {
		_, err := New(c)
		if (err != nil) != (c.Validate() != nil) {
			t.Errorf("New error %v, Validate error %v", err, c.Validate())
		}
		return err != nil
	}
	if rejected(DefaultConfig()) || rejected(Config{}) {
		t.Error("rejected the baseline")
	}
	bad := DefaultConfig()
	bad.L1I.Size = 100 // not a power of two
	if !rejected(bad) {
		t.Error("accepted invalid L1I")
	}
	bad = DefaultConfig()
	bad.IAugment = core.Aux{Stream: core.StreamConfig{Ways: -1}}
	if !rejected(bad) {
		t.Error("accepted invalid stream config")
	}
	// Negative helper sizes and a miss cache beside other helpers are
	// errors on every level, never a panic inside core.
	for name, set := range map[string]func(*Config){
		"negative miss cache":           func(c *Config) { c.DAugment = core.Aux{MissCache: -1} },
		"negative victim cache":         func(c *Config) { c.IAugment = core.Aux{Victim: -4} },
		"negative victim with stream":   func(c *Config) { c.DAugment = core.Aux{Victim: -1, Stream: core.StreamConfig{Ways: 4}} },
		"negative L2 victim cache":      func(c *Config) { c.L2Augment = core.Aux{Victim: -1} },
		"miss cache with victim cache":  func(c *Config) { c.DAugment = core.Aux{MissCache: 2, Victim: 2} },
		"miss cache with stream buffer": func(c *Config) { c.IAugment = core.Aux{MissCache: 2, Stream: core.StreamConfig{Ways: 1}} },
	} {
		bad = DefaultConfig()
		set(&bad)
		if !rejected(bad) {
			t.Errorf("accepted %s", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(bad)
}

func TestZeroConfigDefaults(t *testing.T) {
	s := MustNew(Config{})
	if got := s.Config().L1I.Size; got != 4096 {
		t.Errorf("defaulted L1I size = %d", got)
	}
	if s.IFrontEnd() == nil || s.DFrontEnd() == nil || s.L2Level() == nil {
		t.Error("components missing")
	}
}

func TestRoutingByKind(t *testing.T) {
	s := MustNew(Config{})
	tr := memtrace.NewTrace(0)
	tr.Append(memtrace.Access{Addr: 0x1000, Kind: memtrace.Ifetch})
	tr.Append(memtrace.Access{Addr: 0x2000, Kind: memtrace.Load})
	tr.Append(memtrace.Access{Addr: 0x3000, Kind: memtrace.Store})
	tr.Each(s.Access)
	if got := s.IFrontEnd().Stats().Accesses; got != 1 {
		t.Errorf("I accesses = %d, want 1", got)
	}
	if got := s.DFrontEnd().Stats().Accesses; got != 2 {
		t.Errorf("D accesses = %d, want 2", got)
	}
}

func TestL2SeesL1MissesOnly(t *testing.T) {
	s := MustNew(Config{})
	// Two ifetches in the same L1 line: one L1 miss, one hit; L2 sees
	// exactly one demand access.
	s.Access(memtrace.Access{Addr: 0x1000, Kind: memtrace.Ifetch})
	s.Access(memtrace.Access{Addr: 0x1004, Kind: memtrace.Ifetch})
	r := s.Results(2)
	if r.L2I.DemandAccesses != 1 {
		t.Errorf("L2 demand accesses = %d, want 1", r.L2I.DemandAccesses)
	}
	if r.L2I.DemandMisses != 1 {
		t.Errorf("L2 demand misses = %d, want 1 (cold)", r.L2I.DemandMisses)
	}
}

func TestL2LineGranularity(t *testing.T) {
	s := MustNew(Config{})
	// Adjacent L1 lines (16B) fall in one L2 line (128B): the second L1
	// miss hits in L2.
	s.Access(memtrace.Access{Addr: 0x1000, Kind: memtrace.Load})
	s.Access(memtrace.Access{Addr: 0x1010, Kind: memtrace.Load})
	r := s.Results(0)
	if r.L2D.DemandAccesses != 2 || r.L2D.DemandMisses != 1 {
		t.Errorf("L2D = %+v, want 2 accesses / 1 miss", r.L2D)
	}
}

func TestPrefetchTrafficAttributed(t *testing.T) {
	cfg := Config{
		DAugment: core.Aux{Stream: core.StreamConfig{Ways: 1, Depth: 4}},
	}
	s := MustNew(cfg)
	for i := 0; i < 100; i++ {
		s.Access(memtrace.Access{Addr: memtrace.Addr(0x10000 + i*16), Kind: memtrace.Load})
	}
	r := s.Results(0)
	if r.L2D.PrefetchAccesses == 0 {
		t.Error("no prefetch traffic recorded at L2")
	}
	if r.D.StreamHits == 0 {
		t.Error("no stream hits on a sequential walk")
	}
	// Sequential walk: nearly all L1 misses covered by the buffer.
	if r.D.FullMisses() > 2 {
		t.Errorf("full misses = %d, want ≤ 2", r.D.FullMisses())
	}
}

func TestResultsBreakdownConsistency(t *testing.T) {
	s := MustNew(Config{})
	rng := rand.New(rand.NewSource(9))
	tr := memtrace.NewTrace(0)
	for i := 0; i < 20000; i++ {
		kind := memtrace.Ifetch
		addr := memtrace.Addr(0x100000 + rng.Intn(1<<16))
		if rng.Intn(3) == 0 {
			kind = memtrace.Load
			addr = memtrace.Addr(0x800000 + rng.Intn(1<<17))
		}
		tr.Append(memtrace.Access{Addr: addr, Kind: kind})
	}
	tr.Each(s.Access)
	r := s.Results(tr.Instructions())
	if r.Instructions != tr.Instructions() {
		t.Errorf("instructions = %d, want %d", r.Instructions, tr.Instructions())
	}
	// L2 demand misses can never exceed L1 full misses.
	if r.L2I.DemandMisses > r.I.FullMisses() {
		t.Errorf("L2I misses %d > L1I full misses %d", r.L2I.DemandMisses, r.I.FullMisses())
	}
	if r.L2D.DemandMisses > r.D.FullMisses() {
		t.Errorf("L2D misses %d > L1D full misses %d", r.L2D.DemandMisses, r.D.FullMisses())
	}
	// Demand accesses at L2 equal L1 full misses (every uncovered L1
	// miss fetches exactly one line).
	if r.L2I.DemandAccesses != r.I.FullMisses() {
		t.Errorf("L2I demand accesses %d != L1I full misses %d",
			r.L2I.DemandAccesses, r.I.FullMisses())
	}
	if got := r.Breakdown.Total(); got < r.Instructions {
		t.Errorf("total time %d < instructions %d", got, r.Instructions)
	}
	if r.IMissRate() != r.I.MissRate() || r.DMissRate() != r.D.MissRate() {
		t.Error("miss-rate accessors disagree")
	}
}

func TestVictimCacheAugmentReducesConflicts(t *testing.T) {
	// Alternating L1-conflicting lines: the victim-cache system should
	// have far fewer full misses than the baseline.
	mkTrace := func() *memtrace.Trace {
		tr := memtrace.NewTrace(0)
		for i := 0; i < 1000; i++ {
			tr.Append(memtrace.Access{Addr: 0x0000, Kind: memtrace.Load})
			tr.Append(memtrace.Access{Addr: 0x1000, Kind: memtrace.Load}) // +4KB: same set
		}
		return tr
	}
	base := MustNew(Config{})
	mkTrace().Each(base.Access)
	vc := MustNew(Config{DAugment: core.Aux{Victim: 4}})
	mkTrace().Each(vc.Access)
	if b, v := base.Results(0).D.FullMisses(), vc.Results(0).D.FullMisses(); v*10 > b {
		t.Errorf("victim cache misses %d not ≪ baseline %d", v, b)
	}
}

func TestCombinedAugment(t *testing.T) {
	cfg := Config{
		IAugment: core.Aux{Stream: core.StreamConfig{Ways: 1, Depth: 4}},
		DAugment: core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}},
	}
	s := MustNew(cfg)
	for i := 0; i < 2000; i++ {
		s.Access(memtrace.Access{Addr: memtrace.Addr(0x100000 + i*4), Kind: memtrace.Ifetch})
		s.Access(memtrace.Access{Addr: memtrace.Addr(0x900000 + i*8), Kind: memtrace.Load})
	}
	r := s.Results(2000)
	if r.I.StreamHits == 0 || r.D.StreamHits == 0 {
		t.Errorf("stream hits I=%d D=%d, want both > 0", r.I.StreamHits, r.D.StreamHits)
	}
}

func TestMissCacheAugment(t *testing.T) {
	s := MustNew(Config{DAugment: core.Aux{MissCache: 2}})
	for i := 0; i < 100; i++ {
		s.Access(memtrace.Access{Addr: 0x0000, Kind: memtrace.Load})
		s.Access(memtrace.Access{Addr: 0x1000, Kind: memtrace.Load})
	}
	if hits := s.DFrontEnd().Stats().MissCacheHits; hits == 0 {
		t.Error("miss cache never hit")
	}
}

func TestL2VictimCacheExtension(t *testing.T) {
	// Two L2-conflicting lines alternate: a small L2 with a victim cache
	// behind it converts L2 conflict misses into victim hits. Use a tiny
	// L2 so conflicts are easy to provoke, and L1 of different line size
	// so every L1 miss reaches L2.
	cfg := Config{
		L1I: cache.Config{Name: "L1I", Size: 64, LineSize: 16, Assoc: 1},
		L1D: cache.Config{Name: "L1D", Size: 64, LineSize: 16, Assoc: 1},
		L2:  cache.Config{Name: "L2", Size: 1024, LineSize: 128, Assoc: 1},
	}
	base := MustNew(cfg)
	cfgV := cfg
	cfgV.L2Augment = core.Aux{Victim: 4}
	withVC := MustNew(cfgV)

	run := func(s *System) Results {
		for i := 0; i < 500; i++ {
			// Same L1 set (64B cache) and same L2 set (1KB cache).
			s.Access(memtrace.Access{Addr: 0x00000, Kind: memtrace.Load})
			s.Access(memtrace.Access{Addr: 0x10000, Kind: memtrace.Load})
		}
		return s.Results(0)
	}
	rb, rv := run(base), run(withVC)
	if rv.L2D.DemandMisses >= rb.L2D.DemandMisses {
		t.Errorf("L2 victim cache did not reduce L2 misses: %d vs %d",
			rv.L2D.DemandMisses, rb.L2D.DemandMisses)
	}
	if rv.L2D.VictimHits == 0 {
		t.Error("L2 victim hits not recorded")
	}
}

func TestImprovedSystemBeatsBaseline(t *testing.T) {
	// The Figure 5-1 shape on a mixed workload: baseline vs the paper's
	// improved system (I stream buffer; D victim cache + 4-way stream
	// buffer) — the improved system must achieve a higher percentage of
	// potential performance.
	mkTrace := func() *memtrace.Trace {
		tr := memtrace.NewTrace(0)
		rng := rand.New(rand.NewSource(77))
		ipc := uint64(0x100000)
		for i := 0; i < 30000; i++ {
			// Sequential code with occasional jumps across a 32KB text.
			if rng.Intn(32) == 0 {
				ipc = 0x100000 + uint64(rng.Intn(1<<15))&^3
			}
			tr.Append(memtrace.Access{Addr: memtrace.Addr(ipc), Kind: memtrace.Ifetch})
			ipc += 4
			if i%3 == 0 {
				// Mixed data: streaming plus a conflicting pair.
				switch rng.Intn(3) {
				case 0:
					tr.Append(memtrace.Access{Addr: memtrace.Addr(0x800000 + i*8), Kind: memtrace.Load})
				case 1:
					tr.Append(memtrace.Access{Addr: 0x40000, Kind: memtrace.Load})
				default:
					tr.Append(memtrace.Access{Addr: 0x41000, Kind: memtrace.Store})
				}
			}
		}
		return tr
	}

	base := MustNew(Config{})
	mkTrace().Each(base.Access)
	rb := base.Results(mkTrace().Instructions())

	improved := MustNew(Config{
		IAugment: core.Aux{Stream: core.StreamConfig{Ways: 1, Depth: 4}},
		DAugment: core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}},
	})
	mkTrace().Each(improved.Access)
	ri := improved.Results(mkTrace().Instructions())

	if ri.Breakdown.PercentOfPotential() <= rb.Breakdown.PercentOfPotential() {
		t.Errorf("improved %.1f%% not better than baseline %.1f%%",
			ri.Breakdown.PercentOfPotential(), rb.Breakdown.PercentOfPotential())
	}
	if ri.D.FullMisses() >= rb.D.FullMisses() {
		t.Errorf("improved D misses %d not below baseline %d",
			ri.D.FullMisses(), rb.D.FullMisses())
	}
}

func TestInclusionReport(t *testing.T) {
	// A system with a small L2 and a victim-cached L1D. Drive conflicting
	// lines so the victim cache retains lines and the small L2 evicts.
	cfg := Config{
		L2:       cache.Config{Name: "L2", Size: 1024, LineSize: 128, Assoc: 1},
		DAugment: core.Aux{Victim: 8},
	}
	s := MustNew(cfg)
	// Touch widely spaced lines: the 8-line L2 cycles constantly while
	// L1 (256 lines) and the victim cache keep most of them.
	for i := 0; i < 64; i++ {
		s.Access(memtrace.Access{Addr: memtrace.Addr(i * 4096), Kind: memtrace.Load})
	}
	r := s.Inclusion()
	if r.DLines == 0 {
		t.Fatal("no resident D lines counted")
	}
	if r.DViolations == 0 {
		t.Error("expected inclusion violations with a tiny L2")
	}
	if r.DViolations > r.DLines {
		t.Errorf("violations %d exceed lines %d", r.DViolations, r.DLines)
	}
	// The instruction side saw no traffic.
	if r.ILines != 0 || r.IViolations != 0 {
		t.Errorf("idle I side reports %+v", r)
	}
}

func TestInclusionHoldsWithBigL2(t *testing.T) {
	// With the paper's 1MB L2 and short traffic, nothing is evicted from
	// L2, so a plain hierarchy has no violations.
	s := MustNew(Config{})
	for i := 0; i < 200; i++ {
		s.Access(memtrace.Access{Addr: memtrace.Addr(0x100000 + i*16), Kind: memtrace.Load})
	}
	if r := s.Inclusion(); r.DViolations != 0 {
		t.Errorf("unexpected violations: %+v", r)
	}
}

func TestL2StreamBufferExtension(t *testing.T) {
	// Stream data far beyond a small L2: second-level stream buffers
	// should convert most L2 misses into buffer hits, with the prefetch
	// traffic visible at memory.
	cfg := Config{
		L2:        cache.Config{Name: "L2", Size: 8 << 10, LineSize: 128, Assoc: 1},
		L2Augment: core.Aux{Stream: core.StreamConfig{Ways: 2, Depth: 4}},
	}
	s := MustNew(cfg)
	for i := 0; i < 4000; i++ {
		s.Access(memtrace.Access{Addr: memtrace.Addr(0x100000 + i*16), Kind: memtrace.Load})
	}
	r := s.Results(0)
	if r.L2D.StreamHits == 0 {
		t.Fatal("no L2 stream-buffer hits on a sequential sweep")
	}
	if r.Mem.PrefetchFetches == 0 {
		t.Error("no memory prefetch traffic recorded")
	}
	// Compare against the plain system: far fewer L2 demand misses.
	base := MustNew(Config{
		L2: cache.Config{Name: "L2", Size: 8 << 10, LineSize: 128, Assoc: 1},
	})
	for i := 0; i < 4000; i++ {
		base.Access(memtrace.Access{Addr: memtrace.Addr(0x100000 + i*16), Kind: memtrace.Load})
	}
	rb := base.Results(0)
	if r.L2D.DemandMisses*2 > rb.L2D.DemandMisses {
		t.Errorf("L2 stream buffers barely helped: %d vs %d misses",
			r.L2D.DemandMisses, rb.L2D.DemandMisses)
	}
	if rb.Mem.DemandFetches == 0 {
		t.Error("baseline memory demand traffic not recorded")
	}
}

// The L2 victim and stream hits booked per side from each L2 access's
// result add up to the L2 level's own counts.
func TestL2HitsAttributedFromResult(t *testing.T) {
	s := MustNew(Config{
		L1I:       cache.Config{Name: "L1I", Size: 256, LineSize: 16, Assoc: 1},
		L1D:       cache.Config{Name: "L1D", Size: 256, LineSize: 16, Assoc: 1},
		L2:        cache.Config{Name: "L2", Size: 4096, LineSize: 128, Assoc: 1},
		IAugment:  core.Aux{Stream: core.StreamConfig{Ways: 1}},
		DAugment:  core.Aux{Victim: 2, Stream: core.StreamConfig{Ways: 2}},
		L2Augment: core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 2, Depth: 2}},
	})
	rng := rand.New(rand.NewSource(9))
	pc := uint64(0x100000)
	for i := 0; i < 50000; i++ {
		pc += 4
		if rng.Intn(50) == 0 {
			pc = 0x100000 + uint64(rng.Intn(1<<16))&^3
		}
		s.Access(memtrace.Access{Addr: memtrace.Addr(pc), Kind: memtrace.Ifetch})
		if rng.Intn(3) == 0 {
			addr := memtrace.Addr(0x800000 + rng.Intn(1<<15))
			kind := memtrace.Load
			if rng.Intn(4) == 0 {
				kind = memtrace.Store
			}
			s.Access(memtrace.Access{Addr: addr, Kind: kind})
		}
	}
	r := s.Results(0)
	l2 := s.l2fe.Stats()
	if l2.VictimHits == 0 || l2.StreamHits == 0 {
		t.Fatalf("trace exercised too little: L2 victim hits %d, stream hits %d", l2.VictimHits, l2.StreamHits)
	}
	if got := r.L2I.VictimHits + r.L2D.VictimHits; got != l2.VictimHits {
		t.Errorf("L2 victim hits: I+D %d, L2 level %d", got, l2.VictimHits)
	}
	if got := r.L2I.StreamHits + r.L2D.StreamHits; got != l2.StreamHits {
		t.Errorf("L2 stream hits: I+D %d, L2 level %d", got, l2.StreamHits)
	}
	if r.L2I.StreamHits == 0 || r.L2D.StreamHits == 0 {
		t.Errorf("L2 stream hits not split across sides: I %d, D %d", r.L2I.StreamHits, r.L2D.StreamHits)
	}
}
