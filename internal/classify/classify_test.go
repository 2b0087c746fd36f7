package classify

import (
	"math/rand"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/telemetry"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 16); err == nil {
		t.Error("accepted zero size")
	}
	if _, err := New(100, 16); err == nil {
		t.Error("accepted non-power-of-two size")
	}
	if _, err := New(64, 0); err == nil {
		t.Error("accepted zero line size")
	}
	if _, err := New(16, 64); err == nil {
		t.Error("accepted line > size")
	}
	if _, err := New(4096, 16); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(0, 16)
}

func TestClassString(t *testing.T) {
	if Compulsory.String() != "compulsory" || Capacity.String() != "capacity" ||
		Conflict.String() != "conflict" {
		t.Error("class names wrong")
	}
	if Class(77).String() != "Class(77)" {
		t.Error("unknown class name wrong")
	}
}

func TestFirstReferenceIsCompulsory(t *testing.T) {
	c := MustNew(64, 16)
	if got := c.Observe(0x1000); got != Compulsory {
		t.Errorf("first ref = %v, want compulsory", got)
	}
	// Same line, different byte: not compulsory anymore.
	if got := c.Observe(0x1008); got == Compulsory {
		t.Error("second ref to same line classified compulsory")
	}
}

func TestConflictDetection(t *testing.T) {
	// Shadow capacity = 4 lines. Two alternating lines easily fit in a
	// 4-line fully-associative cache, so after warm-up every re-reference
	// is a Conflict from the direct-mapped cache's point of view.
	c := MustNew(64, 16)
	c.Observe(0x0000) // compulsory
	c.Observe(0x1000) // compulsory
	for i := 0; i < 10; i++ {
		if got := c.Observe(0x0000); got != Conflict {
			t.Fatalf("alternating ref = %v, want conflict", got)
		}
		if got := c.Observe(0x1000); got != Conflict {
			t.Fatalf("alternating ref = %v, want conflict", got)
		}
	}
}

func TestCapacityDetection(t *testing.T) {
	// Stream 8 distinct lines through a 4-line shadow repeatedly: after the
	// compulsory pass, every miss is a capacity miss (the FA LRU cache of 4
	// lines also misses a cyclic sweep of 8 lines).
	c := MustNew(64, 16)
	lines := 8
	for i := 0; i < lines; i++ {
		if got := c.Observe(uint64(i * 16)); got != Compulsory {
			t.Fatalf("pass 1 ref %d = %v, want compulsory", i, got)
		}
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			if got := c.Observe(uint64(i * 16)); got != Capacity {
				t.Fatalf("pass %d ref %d = %v, want capacity", pass+2, i, got)
			}
		}
	}
}

func TestShadowCapacityBound(t *testing.T) {
	c := MustNew(256, 16) // 16 lines
	for i := 0; i < 1000; i++ {
		c.Observe(uint64(i) * 16)
	}
	if c.Len() != 16 {
		t.Errorf("shadow holds %d lines, want 16", c.Len())
	}
	if c.UniqueLines() != 1000 {
		t.Errorf("unique lines = %d, want 1000", c.UniqueLines())
	}
}

func TestObserveMissRecordsOnlyMisses(t *testing.T) {
	c := MustNew(64, 16)
	c.ObserveMiss(0x0000, true)  // compulsory, recorded
	c.ObserveMiss(0x0000, false) // hit in cache under study, not recorded
	c.ObserveMiss(0x1000, true)  // compulsory, recorded
	c.ObserveMiss(0x0000, true)  // conflict, recorded
	got := c.Counts()
	if got.Compulsory != 2 || got.Conflict != 1 || got.Capacity != 0 {
		t.Errorf("counts = %+v", got)
	}
	if got.Total() != 3 {
		t.Errorf("total = %d, want 3", got.Total())
	}
	if got.Of(Compulsory) != 2 || got.Of(Conflict) != 1 || got.Of(Capacity) != 0 {
		t.Error("Of() disagrees with fields")
	}
}

// The defining identity: classes partition the misses of the cache under
// study — compulsory + capacity + conflict == total misses — for any
// reference stream.
func TestClassesPartitionMisses(t *testing.T) {
	dm := cache.MustNew(cache.Config{Size: 256, LineSize: 16, Assoc: 1})
	cl := MustNew(256, 16)
	rng := rand.New(rand.NewSource(11))
	var misses uint64
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(4096))
		hit, _ := dm.Access(addr, false)
		cl.ObserveMiss(addr, !hit)
		if !hit {
			misses++
		}
	}
	if got := cl.Counts().Total(); got != misses {
		t.Fatalf("class totals %d != misses %d", got, misses)
	}
	if cl.Counts().Conflict == 0 {
		t.Error("random clustered stream produced no conflict misses")
	}
	if cl.Counts().Compulsory == 0 || cl.Counts().Capacity == 0 {
		t.Errorf("expected all classes populated: %+v", cl.Counts())
	}
}

// A fully-associative LRU cache of the same size must, by definition, have
// zero conflict misses.
func TestFullyAssociativeCacheHasNoConflictMisses(t *testing.T) {
	fa := cache.MustNew(cache.Config{Size: 256, LineSize: 16, Assoc: cache.FullyAssociative})
	cl := MustNew(256, 16)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 30000; i++ {
		addr := uint64(rng.Intn(8192))
		hit, _ := fa.Access(addr, false)
		cl.ObserveMiss(addr, !hit)
	}
	if got := cl.Counts().Conflict; got != 0 {
		t.Fatalf("fully-associative cache shows %d conflict misses", got)
	}
}

// Shadow LRU must agree with the cache package's fully-associative LRU
// implementation on hit/miss for arbitrary streams (two independent
// implementations of the same policy).
func TestShadowMatchesCachePackageFA(t *testing.T) {
	cl := MustNew(512, 16)
	fa := cache.MustNew(cache.Config{Size: 512, LineSize: 16, Assoc: cache.FullyAssociative})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40000; i++ {
		addr := uint64(rng.Intn(16384))
		class := cl.Observe(addr)
		hit, _ := fa.Access(addr, false)
		// Observe returns Conflict iff the shadow FA hit (for previously
		// seen lines); the cache package FA must agree.
		if hit && class == Capacity {
			t.Fatalf("access %d addr %#x: shadow missed but cache.FA hit", i, addr)
		}
		if !hit && class == Conflict {
			t.Fatalf("access %d addr %#x: shadow hit but cache.FA missed", i, addr)
		}
	}
}

func BenchmarkObserve(b *testing.B) {
	cl := MustNew(4096, 16)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Observe(addrs[i&(len(addrs)-1)])
	}
}

// TestInstrumentPublishesAtFlush checks the classifier's counters: they
// count from attach time, move only at Flush or Counts, and then match
// the per-class growth of Counts exactly.
func TestInstrumentPublishesAtFlush(t *testing.T) {
	c := MustNew(256, 16)
	rng := rand.New(rand.NewSource(3))
	observe := func(n int) {
		for i := 0; i < n; i++ {
			c.ObserveMiss(uint64(rng.Intn(4096)), rng.Intn(2) == 0)
		}
	}
	observe(1000)
	before := c.Counts()
	reg := telemetry.NewRegistry()
	c.Instrument(reg.Deltas("comp_total", "", "cap_total", "", "conf_total", ""))
	observe(10000)
	if got := reg.Snapshot()["comp_total"]; got != 0 {
		t.Errorf("counters moved before a flush: comp_total = %v", got)
	}
	after := c.Counts()
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"comp_total": after.Compulsory - before.Compulsory,
		"cap_total":  after.Capacity - before.Capacity,
		"conf_total": after.Conflict - before.Conflict,
	} {
		if snap[name] != float64(want) || want == 0 {
			t.Errorf("%s = %v, want %d (nonzero) since attach", name, snap[name], want)
		}
	}
}
