package core

import (
	"math/rand"
	"testing"

	"jouppi/internal/cache"
)

// newL1 builds the paper's baseline 4KB direct-mapped, 16B-line cache,
// scaled down when tests want tighter conflict behaviour.
func newL1(size int) *cache.Cache {
	return cache.MustNew(cache.Config{Name: "L1", Size: size, LineSize: 16, Assoc: 1})
}

func TestTimingWithDefaults(t *testing.T) {
	tm := Timing{}.withDefaults()
	if tm.MissPenalty != 24 || tm.AuxPenalty != 1 || tm.FillLatency != 24 || tm.FillInterval != 4 {
		t.Errorf("defaults = %+v", tm)
	}
	tm = Timing{MissPenalty: 10}.withDefaults()
	if tm.FillLatency != 10 {
		t.Errorf("FillLatency should default to MissPenalty, got %d", tm.FillLatency)
	}
	if DefaultTiming() != (Timing{MissPenalty: 24, AuxPenalty: 1, FillLatency: 24, FillInterval: 4}) {
		t.Errorf("DefaultTiming = %+v", DefaultTiming())
	}
}

func TestBaselineCounting(t *testing.T) {
	var fetched []uint64
	fe := NewBaseline(newL1(64), func(la uint64, pf bool) {
		if pf {
			t.Error("baseline issued a prefetch")
		}
		fetched = append(fetched, la)
	}, DefaultTiming())

	r := fe.Access(0x00, false)
	if r.L1Hit || r.AuxHit || r.Stall != 24 {
		t.Fatalf("first access = %+v", r)
	}
	r = fe.Access(0x08, false)
	if !r.L1Hit || r.Stall != 0 {
		t.Fatalf("same-line access = %+v", r)
	}
	fe.Access(0x40, false) // conflicts in 64B cache
	fe.Access(0x00, false) // conflict miss again

	st := fe.Stats()
	if st.Accesses != 4 || st.L1Hits != 1 || st.L1Misses != 3 || st.Fetches != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.FullMisses() != 3 || st.AuxHits != 0 {
		t.Errorf("full misses = %d, aux = %d", st.FullMisses(), st.AuxHits)
	}
	if st.StallCycles != 3*24 {
		t.Errorf("stall cycles = %d, want 72", st.StallCycles)
	}
	if st.Cycles() != 4+72 {
		t.Errorf("cycles = %d, want 76", st.Cycles())
	}
	if len(fetched) != 3 {
		t.Errorf("fetch callbacks = %d, want 3", len(fetched))
	}
	if fe.Name() != "baseline" {
		t.Errorf("name = %q", fe.Name())
	}
	if fe.Cache() == nil {
		t.Error("Cache() returned nil")
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Accesses: 100, L1Hits: 80, L1Misses: 20, AuxHits: 5}
	if s.FullMisses() != 15 {
		t.Errorf("FullMisses = %d", s.FullMisses())
	}
	if s.MissRate() != 0.15 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if s.RawMissRate() != 0.20 {
		t.Errorf("RawMissRate = %v", s.RawMissRate())
	}
	var idle Stats
	if idle.MissRate() != 0 || idle.RawMissRate() != 0 {
		t.Error("idle rates nonzero")
	}
}

func TestMissCacheAlternatingConflict(t *testing.T) {
	// The paper's string-compare scenario: two lines mapping to the same
	// direct-mapped set, alternating. A 2-entry miss cache removes all
	// conflict misses after warm-up.
	fe := NewMissCache(newL1(64), 2, nil, DefaultTiming())
	a, b := uint64(0x000), uint64(0x040)
	fe.Access(a, false) // compulsory
	fe.Access(b, false) // compulsory
	for i := 0; i < 20; i++ {
		ra := fe.Access(a, false)
		rb := fe.Access(b, false)
		if !ra.AuxHit || !rb.AuxHit {
			t.Fatalf("iter %d: results %+v %+v, want aux hits", i, ra, rb)
		}
	}
	st := fe.Stats()
	if st.FullMisses() != 2 {
		t.Errorf("full misses = %d, want 2 (compulsory only)", st.FullMisses())
	}
	if st.MissCacheHits != 40 {
		t.Errorf("miss cache hits = %d, want 40", st.MissCacheHits)
	}
	if fe.Name() != "miss-cache-2" {
		t.Errorf("name = %q", fe.Name())
	}
}

func TestOneEntryMissCacheIsUseless(t *testing.T) {
	// §3.2: a 1-entry miss cache holds a copy of the most recently missed
	// line — which is also in L1 — so an alternating conflict pair never
	// hits it. (This is the motivation for victim caching.)
	fe := NewMissCache(newL1(64), 1, nil, DefaultTiming())
	a, b := uint64(0x000), uint64(0x040)
	for i := 0; i < 20; i++ {
		fe.Access(a, false)
		fe.Access(b, false)
	}
	if hits := fe.Stats().MissCacheHits; hits != 0 {
		t.Fatalf("1-entry miss cache got %d hits on alternating pair, want 0", hits)
	}
}

func TestOneEntryVictimCacheIsUseful(t *testing.T) {
	// §3.2: a 1-entry victim cache captures an alternating conflict pair
	// completely — the two lines trade places between L1 and the victim
	// cache.
	fe := NewVictimCache(newL1(64), 1, nil, DefaultTiming())
	a, b := uint64(0x000), uint64(0x040)
	fe.Access(a, false)
	fe.Access(b, false)
	for i := 0; i < 20; i++ {
		if r := fe.Access(a, false); !r.AuxHit {
			t.Fatalf("iter %d access a: %+v, want aux hit", i, r)
		}
		if r := fe.Access(b, false); !r.AuxHit {
			t.Fatalf("iter %d access b: %+v, want aux hit", i, r)
		}
	}
	st := fe.Stats()
	if st.FullMisses() != 2 {
		t.Errorf("full misses = %d, want 2", st.FullMisses())
	}
	if st.VictimHits != 40 {
		t.Errorf("victim hits = %d, want 40", st.VictimHits)
	}
	if fe.Name() != "victim-cache-1" {
		t.Errorf("name = %q", fe.Name())
	}
}

func TestVictimCacheExclusivity(t *testing.T) {
	// Property: after any access sequence, no line is in both L1 and the
	// victim cache.
	fe := NewVictimCache(newL1(256), 4, nil, DefaultTiming())
	rng := rand.New(rand.NewSource(7))
	var touched []uint64
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(2048)) &^ 0xf
		fe.Access(addr, rng.Intn(4) == 0)
		touched = append(touched, addr)
		if i%97 == 0 {
			for _, a := range touched {
				if !fe.Exclusive(a) {
					t.Fatalf("access %d: line %#x in both L1 and victim cache", i, a)
				}
			}
		}
	}
}

func TestVictimNotInAuxAfterSwap(t *testing.T) {
	fe := NewVictimCache(newL1(64), 2, nil, DefaultTiming())
	a, b := uint64(0x000), uint64(0x040)
	fe.Access(a, false)
	fe.Access(b, false) // a evicted into VC
	if !fe.ContainsAux(a) {
		t.Fatal("victim a not in VC")
	}
	fe.Access(a, false) // swap: a into L1, b into VC
	if fe.ContainsAux(a) {
		t.Fatal("a still in VC after swap")
	}
	if !fe.ContainsAux(b) {
		t.Fatal("b not in VC after swap")
	}
	if !fe.Cache().Contains(a) || fe.Cache().Contains(b) {
		t.Fatal("L1 contents wrong after swap")
	}
}

func TestMissCacheDuplicationVictimCacheNone(t *testing.T) {
	// §3.2's motivating observation, checked directly: after a string of
	// misses, every miss-cache entry duplicates an L1 line, while no
	// victim-cache entry does.
	mc := NewMissCache(newL1(256), 4, nil, DefaultTiming())
	vc := NewVictimCache(newL1(256), 4, nil, DefaultTiming())
	// Distinct lines, no conflicts: pure compulsory misses.
	for i := 0; i < 8; i++ {
		addr := uint64(i * 16)
		mc.Access(addr, false)
		vc.Access(addr, false)
	}
	for i := 4; i < 8; i++ { // the last 4 missed lines sit in the miss cache
		addr := uint64(i * 16)
		if !mc.ContainsAux(addr) || !mc.Cache().Contains(addr) {
			t.Errorf("miss cache should duplicate line %#x", addr)
		}
		if vc.ContainsAux(addr) {
			t.Errorf("victim cache duplicates line %#x", addr)
		}
	}
}

// Victim caching is never worse than miss caching (paper: "Victim caching
// is always an improvement over miss caching") — verified across random
// streams and sizes.
func TestVictimAtLeastAsGoodAsMissCache(t *testing.T) {
	for _, entries := range []int{1, 2, 4, 8} {
		for seed := int64(0); seed < 5; seed++ {
			mc := NewMissCache(newL1(256), entries, nil, DefaultTiming())
			vc := NewVictimCache(newL1(256), entries, nil, DefaultTiming())
			rng := rand.New(rand.NewSource(seed))
			// Clustered addresses produce plenty of conflicts.
			for i := 0; i < 30000; i++ {
				addr := uint64(rng.Intn(1024))
				if rng.Intn(3) == 0 {
					addr += 4096
				}
				mc.Access(addr, false)
				vc.Access(addr, false)
			}
			if vcM, mcM := vc.Stats().FullMisses(), mc.Stats().FullMisses(); vcM > mcM {
				t.Errorf("entries=%d seed=%d: victim cache misses %d > miss cache %d",
					entries, seed, vcM, mcM)
			}
		}
	}
}

func TestZeroEntryStructuresEqualBaseline(t *testing.T) {
	base := NewBaseline(newL1(256), nil, DefaultTiming())
	mc := NewMissCache(newL1(256), 0, nil, DefaultTiming())
	vc := NewVictimCache(newL1(256), 0, nil, DefaultTiming())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		addr := uint64(rng.Intn(4096))
		base.Access(addr, false)
		mc.Access(addr, false)
		vc.Access(addr, false)
	}
	b := base.Stats().FullMisses()
	if mc.Stats().FullMisses() != b {
		t.Errorf("0-entry miss cache: %d misses, baseline %d", mc.Stats().FullMisses(), b)
	}
	if vc.Stats().FullMisses() != b {
		t.Errorf("0-entry victim cache: %d misses, baseline %d", vc.Stats().FullMisses(), b)
	}
}

func TestNegativeEntriesPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMissCache(newL1(64), -1, nil, Timing{}) },
		func() { NewVictimCache(newL1(64), -1, nil, Timing{}) },
		func() { NewCombined(newL1(64), -1, StreamConfig{}, nil, Timing{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on negative entries")
				}
			}()
			fn()
		}()
	}
}

func TestWritebackAccountingWriteBackL1(t *testing.T) {
	l1 := cache.MustNew(cache.Config{Size: 64, LineSize: 16, Assoc: 1, WritePolicy: cache.WriteBack})
	fe := NewVictimCache(l1, 1, nil, DefaultTiming())
	fe.Access(0x000, true) // store miss → dirty line in L1
	fe.Access(0x040, false)
	// dirty 0x000 now in VC
	fe.Access(0x080, false) // 0x040 victim → VC evicts dirty 0x000 → writeback
	if wb := fe.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
	// Swap back in a dirty line: dirty state must survive the round trip.
	l2 := cache.MustNew(cache.Config{Size: 64, LineSize: 16, Assoc: 1, WritePolicy: cache.WriteBack})
	fe2 := NewVictimCache(l2, 2, nil, DefaultTiming())
	fe2.Access(0x000, true)  // dirty
	fe2.Access(0x040, false) // dirty 0x000 → VC
	fe2.Access(0x000, false) // swap back, still dirty
	fe2.Access(0x040, false) // swap again: dirty 0x000 → VC
	fe2.Access(0x080, false) // 0x040 → VC; VC holds 0x000(d), 0x040
	fe2.Access(0x0c0, false) // 0x080 → VC evicts LRU 0x000 dirty → writeback
	if wb := fe2.Stats().Writebacks; wb != 1 {
		t.Errorf("dirty bit lost across swap: writebacks = %d, want 1", wb)
	}
}

func TestNewLevelRejectsBadAux(t *testing.T) {
	for _, aux := range []Aux{
		{MissCache: -1},
		{Victim: -2},
		{Victim: -1, Stream: StreamConfig{Ways: 4}},
		{Stream: StreamConfig{Ways: 1, Depth: -1}},
		{Stream: StreamConfig{RunLimit: -1}},
		{MissCache: 2, Victim: 2},
		{MissCache: 2, Stream: StreamConfig{Ways: 1}},
	} {
		if l, err := NewLevel(newL1(64), aux, nil, Timing{}); err == nil {
			t.Errorf("%+v accepted as %s", aux, l.Name())
		}
	}
	// A miss cache alongside a zero-way stream config is a plain miss cache.
	if _, err := NewLevel(newL1(64), Aux{MissCache: 2, Stream: StreamConfig{Depth: 8}}, nil, Timing{}); err != nil {
		t.Errorf("miss cache with depth only: %v", err)
	}
}

// Every shape keeps the name it had as its own front-end type.
func TestLevelNames(t *testing.T) {
	for aux, want := range map[Aux]string{
		{}:                               "baseline",
		{Stream: StreamConfig{Depth: 8}}: "baseline",
		{MissCache: 2}:                   "miss-cache-2",
		{Victim: 4}:                      "victim-cache-4",
		{Stream: StreamConfig{Ways: 4}}:  "stream-4way-4deep",
		{Stream: StreamConfig{Ways: 1, Depth: 8, Quasi: true}}:           "quasi-stream-1way-8deep",
		{Stream: StreamConfig{Ways: 2, Quasi: true, DetectStride: true}}: "stride-stream-2way-4deep",
		{Victim: 4, Stream: StreamConfig{Ways: 4}}:                       "combined-vc4-sb4x4",
	} {
		l, err := NewLevel(newL1(64), aux, nil, Timing{})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Name(); got != want {
			t.Errorf("%+v: name %q, want %q", aux, got, want)
		}
	}
}
