package core

import (
	"math/rand"
	"testing"

	"jouppi/internal/cache"
)

// seqTiming returns timing with zero-ish fill latency so pure miss-count
// tests are not perturbed by availability stalls.
func fastFill() Timing {
	return Timing{MissPenalty: 24, AuxPenalty: 1, FillLatency: 1, FillInterval: 1}
}

func TestStreamConfigDefaultsAndValidate(t *testing.T) {
	cfg := StreamConfig{}.withDefaults()
	if cfg.Ways != 1 || cfg.Depth != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
	for _, bad := range []StreamConfig{{Ways: -1}, {Depth: -1}, {RunLimit: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if _, err := NewLevel(newL1(64), Aux{Stream: StreamConfig{Ways: -1}}, nil, DefaultTiming()); err == nil {
		t.Error("NewLevel accepted negative stream buffer ways")
	}
}

func TestSequentialStreamCaughtByBuffer(t *testing.T) {
	// March straight through memory, one access per 16B line, with a
	// cache too small to ever hit: only the first access should be a
	// full miss; the stream buffer supplies every subsequent line.
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4}, nil, fastFill())
	const n = 200
	for i := 0; i < n; i++ {
		fe.Access(uint64(0x10000+i*16), false)
	}
	st := fe.Stats()
	if st.FullMisses() != 1 {
		t.Fatalf("full misses = %d, want 1 (initial)", st.FullMisses())
	}
	if st.StreamHits != n-1 {
		t.Fatalf("stream hits = %d, want %d", st.StreamHits, n-1)
	}
}

func TestStreamBufferHitsWithinLineDoNotConsume(t *testing.T) {
	// Multiple accesses within the same line hit L1 after the first;
	// buffer entries are consumed once per line.
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4}, nil, fastFill())
	for i := 0; i < 50; i++ {
		base := uint64(0x20000 + i*16)
		fe.Access(base, false)
		fe.Access(base+4, false)
		fe.Access(base+8, false)
	}
	st := fe.Stats()
	if st.L1Hits != 100 {
		t.Errorf("L1 hits = %d, want 100", st.L1Hits)
	}
	if st.StreamHits != 49 {
		t.Errorf("stream hits = %d, want 49", st.StreamHits)
	}
}

func TestHeadOnlyComparatorFlushesOnSkip(t *testing.T) {
	// Skip one line mid-stream: the skipped-to line is in the buffer but
	// not at the head, so the simple model must miss and re-allocate
	// ("non-sequential line misses will cause a stream buffer to be
	// flushed ... even if the requested line is already present further
	// down in the queue").
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4}, nil, fastFill())
	fe.Access(0x1000, false)      // miss; buffer prefetches 0x1010..0x1040
	fe.Access(0x1010, false)      // head hit
	r := fe.Access(0x1030, false) // skips 0x1020; present at depth 2
	if r.AuxHit {
		t.Fatalf("head-only comparator matched a non-head entry: %+v", r)
	}
	if fe.Stats().FullMisses() != 2 {
		t.Errorf("full misses = %d, want 2", fe.Stats().FullMisses())
	}
}

func TestQuasiSequentialMatchesNonHead(t *testing.T) {
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4, Quasi: true}, nil, fastFill())
	fe.Access(0x1000, false)
	fe.Access(0x1010, false)
	r := fe.Access(0x1030, false) // depth-2 entry: quasi mode hits
	if !r.AuxHit {
		t.Fatalf("quasi-sequential buffer missed a resident line: %+v", r)
	}
	// The skipped entry (0x1020) must be gone; the stream continues at
	// 0x1040.
	if r := fe.Access(0x1040, false); !r.AuxHit {
		t.Errorf("stream did not continue after quasi skip: %+v", r)
	}
}

func TestRunLimitStopsPrefetching(t *testing.T) {
	// With RunLimit 2, each allocation may fetch only 2 lines: a
	// sequential walk alternates {miss, hit, hit} forever.
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4, RunLimit: 2}, nil, fastFill())
	const groups = 30
	for i := 0; i < groups*3; i++ {
		fe.Access(uint64(0x40000+i*16), false)
	}
	st := fe.Stats()
	if st.FullMisses() != groups {
		t.Errorf("full misses = %d, want %d", st.FullMisses(), groups)
	}
	if st.StreamHits != groups*2 {
		t.Errorf("stream hits = %d, want %d", st.StreamHits, groups*2)
	}
}

func TestRunLimitZeroIsUnlimited(t *testing.T) {
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4, RunLimit: 0}, nil, fastFill())
	for i := 0; i < 100; i++ {
		fe.Access(uint64(0x50000+i*16), false)
	}
	if st := fe.Stats(); st.FullMisses() != 1 {
		t.Errorf("full misses = %d, want 1", st.FullMisses())
	}
}

func TestSingleBufferThrashesOnInterleavedStreams(t *testing.T) {
	// Two interleaved sequential streams (the saxpy pattern): a single
	// buffer is re-allocated on every access and removes nothing, while
	// a 2-way buffer captures both streams. This is the §4.2 motivation.
	mk := func(ways int) *Level {
		return NewStreamBuffer(newL1(64), StreamConfig{Ways: ways, Depth: 4}, nil, fastFill())
	}
	single, multi := mk(1), mk(2)
	for i := 0; i < 200; i++ {
		a := uint64(0x100000 + i*16)
		b := uint64(0x900000 + i*16)
		single.Access(a, false)
		single.Access(b, false)
		multi.Access(a, false)
		multi.Access(b, false)
	}
	if hits := single.Stats().StreamHits; hits != 0 {
		t.Errorf("single buffer hits on interleaved streams = %d, want 0", hits)
	}
	if misses := multi.Stats().FullMisses(); misses != 2 {
		t.Errorf("2-way buffer full misses = %d, want 2", misses)
	}
}

func TestMultiWayLRUAllocation(t *testing.T) {
	// Three streams, two ways: the least recently *used* way is always
	// the allocation victim. Stream A stays hot; streams B and C fight
	// over the second way.
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 2, Depth: 4}, nil, fastFill())
	a, b, c := uint64(0x10000), uint64(0x20000), uint64(0x30000)
	next := map[rune]uint64{'a': a, 'b': b, 'c': c}
	step := func(r rune) Result {
		addr := next[r]
		next[r] += 16
		return fe.Access(addr, false)
	}
	step('a') // way0 ← A
	step('b') // way1 ← B
	if r := step('a'); !r.AuxHit {
		t.Fatal("A stream lost")
	}
	step('c') // must evict way1 (B), not way0 (A, just used)
	if r := step('a'); !r.AuxHit {
		t.Fatal("allocation evicted the recently used way")
	}
	if r := step('c'); !r.AuxHit {
		t.Fatal("C stream not allocated")
	}
	if r := step('b'); r.AuxHit {
		t.Fatal("B stream unexpectedly survived")
	}
}

func TestInFlightHitStalls(t *testing.T) {
	// With a 12-cycle fill latency and back-to-back accesses, the next
	// sequential line is still in flight when requested: the hit must
	// stall for the remaining latency, not a full miss penalty.
	tm := Timing{MissPenalty: 24, AuxPenalty: 1, FillLatency: 12, FillInterval: 4}
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4}, nil, tm)
	fe.Access(0x1000, false) // miss at t≈1, stall 24 → prefetches issued at t≈25
	r := fe.Access(0x1010, false)
	if !r.AuxHit {
		t.Fatalf("expected stream hit, got %+v", r)
	}
	if r.Stall <= tm.AuxPenalty || r.Stall >= tm.MissPenalty {
		t.Errorf("in-flight stall = %d, want between %d and %d exclusive",
			r.Stall, tm.AuxPenalty, tm.MissPenalty)
	}
	if fe.Stats().StreamInFlightHits != 1 {
		t.Errorf("in-flight hits = %d, want 1", fe.Stats().StreamInFlightHits)
	}
}

func TestPipelinedFillSpacing(t *testing.T) {
	// Entries deeper in the buffer become available later, spaced by the
	// pipelined port interval: access them immediately and the stalls
	// must increase by FillInterval per entry.
	tm := Timing{MissPenalty: 24, AuxPenalty: 1, FillLatency: 12, FillInterval: 4}
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4}, nil, tm)
	fe.Access(0x1000, false)
	var stalls []int
	for i := 1; i <= 3; i++ {
		r := fe.Access(uint64(0x1000+i*16), false)
		if !r.AuxHit {
			t.Fatalf("entry %d missed", i)
		}
		stalls = append(stalls, r.Stall)
	}
	// Each consecutive access happens later but the entry also completed
	// later; the spacing must never exceed the fill interval.
	for i := 1; i < len(stalls); i++ {
		if stalls[i] > stalls[i-1]+tm.FillInterval {
			t.Errorf("stall %d jumped from %d to %d (> interval %d)",
				i, stalls[i-1], stalls[i], tm.FillInterval)
		}
	}
}

func TestPrefetchAccounting(t *testing.T) {
	var demand, prefetch int
	fetch := func(la uint64, pf bool) {
		if pf {
			prefetch++
		} else {
			demand++
		}
	}
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4}, fetch, fastFill())
	for i := 0; i < 10; i++ {
		fe.Access(uint64(0x1000+i*16), false)
	}
	st := fe.Stats()
	if demand != 1 {
		t.Errorf("demand fetches = %d, want 1", demand)
	}
	if uint64(prefetch) != st.PrefetchIssued {
		t.Errorf("prefetch callbacks %d != issued %d", prefetch, st.PrefetchIssued)
	}
	if st.PrefetchUsed != 9 {
		t.Errorf("prefetch used = %d, want 9", st.PrefetchUsed)
	}
	if st.PrefetchIssued < st.PrefetchUsed {
		t.Errorf("issued %d < used %d", st.PrefetchIssued, st.PrefetchUsed)
	}
}

func TestStrideDetection(t *testing.T) {
	// Column-major walk: constant stride of 8 lines. The stride
	// extension should lock on after two confirming deltas; the plain
	// buffer never hits.
	mk := func(detect bool) *Level {
		return NewStreamBuffer(newL1(64),
			StreamConfig{Ways: 1, Depth: 4, DetectStride: detect}, nil, fastFill())
	}
	plain, stride := mk(false), mk(true)
	const strideBytes = 8 * 16
	for i := 0; i < 100; i++ {
		addr := uint64(0x100000 + i*strideBytes)
		plain.Access(addr, false)
		stride.Access(addr, false)
	}
	if hits := plain.Stats().StreamHits; hits != 0 {
		t.Errorf("unit-stride buffer hit %d times on stride-8 walk", hits)
	}
	if hits := stride.Stats().StreamHits; hits < 90 {
		t.Errorf("stride buffer hits = %d, want ≥ 90", hits)
	}
}

func TestStrideDetectorFallsBackToUnit(t *testing.T) {
	// After random misses, a sequential stream must still be caught:
	// detection falls back to +1 when deltas disagree.
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4, DetectStride: true}, nil, fastFill())
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50; i++ {
		fe.Access(uint64(rng.Intn(1<<20))&^0xf+0x40000000, false)
	}
	base := fe.Stats().StreamHits
	for i := 0; i < 50; i++ {
		fe.Access(uint64(0x80000000+i*16), false)
	}
	if got := fe.Stats().StreamHits - base; got < 45 {
		t.Errorf("sequential hits after random phase = %d, want ≥ 45", got)
	}
}

func TestNegativeStrideDetection(t *testing.T) {
	fe := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4, DetectStride: true}, nil, fastFill())
	start := uint64(0x200000)
	for i := 0; i < 60; i++ {
		fe.Access(start-uint64(i*32), false) // stride −2 lines
	}
	if hits := fe.Stats().StreamHits; hits < 50 {
		t.Errorf("negative-stride hits = %d, want ≥ 50", hits)
	}
}

func TestNegativeStrideStopsAtAddressZero(t *testing.T) {
	// A descending stream that runs into address 0 must stop prefetching
	// at the edge instead of wrapping nextLine around the 64-bit space
	// and issuing prefetches for bogus top-of-memory lines.
	var fetched []uint64
	fetch := func(lineAddr uint64, prefetch bool) {
		if prefetch {
			fetched = append(fetched, lineAddr)
		}
	}
	fe := NewStreamBuffer(newL1(64),
		StreamConfig{Ways: 1, Depth: 4, DetectStride: true}, fetch, fastFill())
	for addr := int64(0x60); addr >= 0; addr -= 16 {
		fe.Access(uint64(addr), false)
	}
	for _, la := range fetched {
		if la > 0x10 {
			t.Fatalf("prefetched wrapped line address %#x", la)
		}
	}
	// The lines ahead of the stream (3, 2, 1, 0) must still have been
	// buffered and hit once the descent reaches them.
	if hits := fe.Stats().StreamHits; hits < 3 {
		t.Errorf("stream hits = %d, want ≥ 3", hits)
	}
}

func TestNegativeStrideAllocationAtLineZero(t *testing.T) {
	// A confirmed descending stride whose triggering miss is already at
	// line 0 has nowhere to prefetch: the way must stay idle rather than
	// wrap below zero.
	var fetched []uint64
	fetch := func(lineAddr uint64, prefetch bool) {
		if prefetch {
			fetched = append(fetched, lineAddr)
		}
	}
	fe := NewStreamBuffer(newL1(64),
		StreamConfig{Ways: 1, Depth: 4, DetectStride: true}, fetch, fastFill())
	for _, addr := range []uint64{0x20, 0x10, 0x00} {
		fe.Access(addr, false)
	}
	for _, la := range fetched {
		if la > 0x10 {
			t.Fatalf("prefetched wrapped line address %#x", la)
		}
	}
}

func TestNextLineAddrEdges(t *testing.T) {
	const top = ^uint64(0)
	cases := []struct {
		cur    uint64
		stride int64
		want   uint64
		ok     bool
	}{
		{10, 1, 11, true},
		{10, -1, 9, true},
		{1, -1, 0, true},
		{0, -1, 0, false},
		{5, -8, 0, false},
		{top, 1, 0, false},
		{top - 1, 1, top, true},
		{0, -1 << 63, 0, false},
		{top, 1<<63 - 1, 0, false},
	}
	for _, c := range cases {
		next, ok := nextLineAddr(c.cur, c.stride)
		if ok != c.ok || (ok && next != c.want) {
			t.Errorf("nextLineAddr(%#x, %d) = %#x, %v; want %#x, %v",
				c.cur, c.stride, next, ok, c.want, c.ok)
		}
	}
}

func TestStreamBufferName(t *testing.T) {
	if got := NewStreamBuffer(newL1(64), StreamConfig{Ways: 4, Depth: 4}, nil, Timing{}).Name(); got != "stream-4way-4deep" {
		t.Errorf("name = %q", got)
	}
	if got := NewStreamBuffer(newL1(64), StreamConfig{Quasi: true}, nil, Timing{}).Name(); got != "quasi-stream-1way-4deep" {
		t.Errorf("name = %q", got)
	}
	if got := NewStreamBuffer(newL1(64), StreamConfig{DetectStride: true}, nil, Timing{}).Name(); got != "stride-stream-1way-4deep" {
		t.Errorf("name = %q", got)
	}
}

func TestContainsAuxHeadOnlyVsQuasi(t *testing.T) {
	head := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4}, nil, fastFill())
	quasi := NewStreamBuffer(newL1(64), StreamConfig{Ways: 1, Depth: 4, Quasi: true}, nil, fastFill())
	head.Access(0x1000, false)
	quasi.Access(0x1000, false)
	if !head.ContainsAux(0x1010) || head.ContainsAux(0x1020) {
		t.Error("head-only ContainsAux wrong")
	}
	if !quasi.ContainsAux(0x1010) || !quasi.ContainsAux(0x1020) {
		t.Error("quasi ContainsAux wrong")
	}
}

// Quasi-sequential lookup can only help: on any stream it removes at
// least as many misses as head-only lookup.
func TestQuasiNeverWorse(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		head := NewStreamBuffer(newL1(256), StreamConfig{Ways: 2, Depth: 4}, nil, fastFill())
		quasi := NewStreamBuffer(newL1(256), StreamConfig{Ways: 2, Depth: 4, Quasi: true}, nil, fastFill())
		rng := rand.New(rand.NewSource(seed))
		addr := uint64(0x1000)
		for i := 0; i < 20000; i++ {
			// Mostly-sequential walk with skips: the quasi buffer's
			// favourable case.
			if rng.Intn(10) == 0 {
				addr += uint64(rng.Intn(4)) * 16
			} else {
				addr += 16
			}
			head.Access(addr, false)
			quasi.Access(addr, false)
		}
		if q, h := quasi.Stats().FullMisses(), head.Stats().FullMisses(); q > h {
			t.Errorf("seed %d: quasi misses %d > head-only %d", seed, q, h)
		}
	}
}

func TestCombinedVictimPlusStream(t *testing.T) {
	// Conflict pair (victim-cache territory) interleaved with a long
	// sequential walk (stream-buffer territory): the combined front-end
	// must capture both.
	fe := NewCombined(newL1(64), 4, StreamConfig{Ways: 4, Depth: 4}, nil, fastFill())
	a, b := uint64(0x000), uint64(0x040)
	seq := uint64(0x100000)
	fe.Access(a, false)
	fe.Access(b, false)
	fe.Access(seq, false)
	for i := 0; i < 50; i++ {
		fe.Access(a, false)
		fe.Access(b, false)
		seq += 16
		fe.Access(seq, false)
	}
	st := fe.Stats()
	if st.FullMisses() > 6 {
		t.Errorf("combined full misses = %d, want ≤ 6", st.FullMisses())
	}
	if st.VictimHits == 0 || st.StreamHits == 0 {
		t.Errorf("expected both victim (%d) and stream (%d) hits", st.VictimHits, st.StreamHits)
	}
	if fe.Name() != "combined-vc4-sb4x4" {
		t.Errorf("name = %q", fe.Name())
	}
}

func TestCombinedWithoutStreamEqualsVictimCache(t *testing.T) {
	comb := NewCombined(newL1(256), 4, StreamConfig{}, nil, DefaultTiming())
	vict := NewVictimCache(newL1(256), 4, nil, DefaultTiming())
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(2048))
		comb.Access(addr, false)
		vict.Access(addr, false)
	}
	if c, v := comb.Stats().FullMisses(), vict.Stats().FullMisses(); c != v {
		t.Errorf("combined-without-stream misses %d != victim cache %d", c, v)
	}
}

func TestCombinedWithoutVictimEqualsStreamBuffer(t *testing.T) {
	comb := NewCombined(newL1(256), 0, StreamConfig{Ways: 4, Depth: 4}, nil, fastFill())
	sb := NewStreamBuffer(newL1(256), StreamConfig{Ways: 4, Depth: 4}, nil, fastFill())
	rng := rand.New(rand.NewSource(29))
	addr := uint64(0)
	for i := 0; i < 20000; i++ {
		if rng.Intn(5) == 0 {
			addr = uint64(rng.Intn(1<<20)) &^ 0xf
		} else {
			addr += 16
		}
		comb.Access(addr, false)
		sb.Access(addr, false)
	}
	if c, s := comb.Stats().FullMisses(), sb.Stats().FullMisses(); c != s {
		t.Errorf("combined-without-victim misses %d != stream buffer %d", c, s)
	}
}

func TestCombinedOverlapStat(t *testing.T) {
	// Construct an access whose line is simultaneously in the victim
	// cache and at a stream-buffer head. L1 is 4 lines (set = line mod
	// 4); lines below are line numbers × 16B.
	fe := NewCombined(newL1(64), 4, StreamConfig{Ways: 1, Depth: 4}, nil, fastFill())
	line := func(n int) uint64 { return uint64(n * 16) }
	fe.Access(line(13), false) // full miss (set 1); buffer ← 14..17
	fe.Access(line(5), false)  // full miss (set 1): evicts 13 → VC; buffer ← 6..9
	fe.Access(line(12), false) // full miss (set 0): buffer ← 13..16, head = 13
	r := fe.Access(line(13), false)
	if !r.AuxHit {
		t.Fatalf("expected victim-cache hit, got %+v", r)
	}
	st := fe.Stats()
	if st.VictimHits != 1 {
		t.Fatalf("victim hits = %d, want 1", st.VictimHits)
	}
	if st.OverlapHits != 1 {
		t.Errorf("overlap hits = %d, want 1 (line 13 in VC and at buffer head)", st.OverlapHits)
	}
	if st.OverlapHits > st.VictimHits {
		t.Errorf("overlap %d exceeds victim hits %d", st.OverlapHits, st.VictimHits)
	}
}

func TestCombinedExclusivity(t *testing.T) {
	fe := NewCombined(newL1(256), 4, StreamConfig{Ways: 2, Depth: 4}, nil, fastFill())
	rng := rand.New(rand.NewSource(41))
	addr := uint64(0)
	var touched []uint64
	for i := 0; i < 20000; i++ {
		if rng.Intn(4) == 0 {
			addr = uint64(rng.Intn(4096)) &^ 0xf
		} else {
			addr += 16
		}
		fe.Access(addr, rng.Intn(5) == 0)
		touched = append(touched, addr)
		if i%101 == 0 {
			for _, a := range touched {
				if !fe.Exclusive(a) {
					t.Fatalf("access %d: line %#x in both L1 and victim cache", i, a)
				}
			}
		}
	}
}

// Stream-buffer hits imply the address continues an active stream: on any
// access sequence, every stream hit's line address must equal the value
// the allocating miss predicted (head of a stride-advancing sequence).
// Verified indirectly: with prefetching disabled via an L1 large enough to
// absorb everything, the buffer never reports hits.
func TestNoSpuriousStreamHits(t *testing.T) {
	big := cache.MustNew(cache.Config{Size: 1 << 20, LineSize: 16, Assoc: 1})
	fe := NewStreamBuffer(big, StreamConfig{Ways: 4, Depth: 4}, nil, fastFill())
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50000; i++ {
		fe.Access(uint64(rng.Intn(1<<19)), false)
	}
	st := fe.Stats()
	if st.StreamHits > st.L1Misses {
		t.Fatalf("stream hits %d exceed L1 misses %d", st.StreamHits, st.L1Misses)
	}
	if st.AuxHits != st.StreamHits {
		t.Fatalf("aux hits %d != stream hits %d for stream-only front-end",
			st.AuxHits, st.StreamHits)
	}
}

func TestStreamBufferWriteBackDirtyInstall(t *testing.T) {
	// A store miss satisfied by the stream buffer must install a dirty
	// line under write-back, so its later eviction is a writeback.
	l1 := cache.MustNew(cache.Config{Size: 64, LineSize: 16, Assoc: 1,
		WritePolicy: cache.WriteBack})
	fe := NewStreamBuffer(l1, StreamConfig{Ways: 1, Depth: 4}, nil, fastFill())
	fe.Access(0x1000, false) // miss; buffer ← 0x1010..
	fe.Access(0x1010, true)  // STORE satisfied by the buffer → dirty line
	// Evict 0x1010's set (set 1 of 4 in the 64B cache): +64B.
	fe.Access(0x1050, false)
	if wb := fe.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1 (dirty stream-installed line)", wb)
	}
}

func TestCombinedWriteBackDirtyThroughStreamAndVictim(t *testing.T) {
	// Store-miss → stream hit → dirty L1 line → displaced into the
	// victim cache → victim-cache eviction must count the writeback.
	l1 := cache.MustNew(cache.Config{Size: 64, LineSize: 16, Assoc: 1,
		WritePolicy: cache.WriteBack})
	fe := NewCombined(l1, 1, StreamConfig{Ways: 1, Depth: 4}, nil, fastFill())
	fe.Access(0x1000, false) // demand miss; buffer ← 0x1010..
	fe.Access(0x1010, true)  // store via stream buffer: dirty
	fe.Access(0x1050, false) // displaces dirty 0x1010 into the 1-entry VC
	fe.Access(0x1090, false) // displaces 0x1050 into VC, evicting dirty 0x1010
	if wb := fe.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1 (dirty line evicted from victim cache)", wb)
	}
	// Swap the dirty line back in: it must return dirty to L1.
	fe2 := NewCombined(cache.MustNew(cache.Config{Size: 64, LineSize: 16, Assoc: 1,
		WritePolicy: cache.WriteBack}), 2, StreamConfig{}, nil, DefaultTiming())
	fe2.Access(0x1000, true)  // dirty in L1
	fe2.Access(0x2000, false) // dirty 0x1000 → VC (set 0: 0x1000%64=0, 0x2000%64=0)
	fe2.Access(0x1000, false) // swap back: still dirty
	fe2.Access(0x2000, false) // dirty 0x1000 → VC again
	fe2.Access(0x3000, false) // 0x2000 → VC
	fe2.Access(0x4000, false) // 0x3000 → VC evicts dirty LRU 0x1000
	if wb := fe2.Stats().Writebacks; wb != 1 {
		t.Errorf("swap lost dirty bit: writebacks = %d, want 1", wb)
	}
}
