package cache

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"jouppi/internal/memtrace"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Name: "ok", Size: 4096, LineSize: 16, Assoc: 1},
		{Size: 48, LineSize: 16, Assoc: FullyAssociative}, // three lines, one set
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{Size: 0, LineSize: 16, Assoc: 1},
		{Size: 3000, LineSize: 16, Assoc: 1},              // size not power of two
		{Size: 48, LineSize: 16, Assoc: 1},                // three lines need a set index
		{Size: 40, LineSize: 16, Assoc: FullyAssociative}, // not whole lines
		{Size: 4096, LineSize: 0, Assoc: 1},               // zero line
		{Size: 4096, LineSize: 24, Assoc: 1},              // line not power of two
		{Size: 16, LineSize: 64, Assoc: 1},                // line > size
		{Size: 4096, LineSize: 16, Assoc: 300},            // assoc > lines
		{Size: 4096, LineSize: 16, Assoc: -2},             // negative assoc
		{Size: 4096, LineSize: 16, Assoc: 3},              // lines % assoc != 0
		{Size: 64, LineSize: 16, Assoc: 1, Replacement: 99},
		{Size: 64, LineSize: 16, Assoc: 1, WritePolicy: 99},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{Size: 4096, LineSize: 16, Assoc: 4}
	if got := cfg.Lines(); got != 256 {
		t.Errorf("Lines = %d, want 256", got)
	}
	if got := cfg.Sets(); got != 64 {
		t.Errorf("Sets = %d, want 64", got)
	}
	fa := Config{Size: 4096, LineSize: 16, Assoc: FullyAssociative}
	if got := fa.Sets(); got != 1 {
		t.Errorf("fully-associative Sets = %d, want 1", got)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{Size: 7}); err == nil {
		t.Fatal("New accepted invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{Size: 7})
}

func TestDirectMappedBasics(t *testing.T) {
	// 4 lines of 16B, direct-mapped: addresses 0x00 and 0x40 collide.
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 1})

	if c.Probe(0x00, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(0x00, false)
	if !c.Probe(0x04, false) {
		t.Fatal("same-line access missed after fill")
	}
	if c.Probe(0x40, false) {
		t.Fatal("conflicting line hit before fill")
	}
	v := c.Fill(0x40, false)
	if !v.Valid || v.LineAddr != c.LineAddr(0x00) {
		t.Fatalf("victim = %+v, want line of 0x00", v)
	}
	if c.Probe(0x00, false) {
		t.Fatal("displaced line still hits")
	}

	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 4 accesses / 1 hit / 3 misses", st)
	}
	if st.Fills != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 fills / 1 eviction", st)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// One set, 2 ways, lines of 16B, cache 32B.
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: FullyAssociative})
	c.Fill(0x000, false)
	c.Fill(0x100, false)
	// Touch 0x000 so 0x100 becomes LRU.
	if !c.Probe(0x000, false) {
		t.Fatal("0x000 missing")
	}
	v := c.Fill(0x200, false)
	if !v.Valid || v.LineAddr != c.LineAddr(0x100) {
		t.Fatalf("victim = %+v, want LRU line 0x100", v)
	}
	if !c.Contains(0x000) || !c.Contains(0x200) || c.Contains(0x100) {
		t.Error("post-eviction contents wrong")
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: FullyAssociative, Replacement: FIFO})
	c.Fill(0x000, false)
	c.Fill(0x100, false)
	// Touch 0x000 repeatedly; FIFO must still evict it first.
	for i := 0; i < 5; i++ {
		c.Probe(0x000, false)
	}
	v := c.Fill(0x200, false)
	if !v.Valid || v.LineAddr != c.LineAddr(0x000) {
		t.Fatalf("FIFO victim = %+v, want first-in line 0x000", v)
	}
}

func TestRandomReplacementIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []uint64 {
		c := MustNew(Config{Size: 64, LineSize: 16, Assoc: FullyAssociative,
			Replacement: Random, RandomSeed: seed})
		var victims []uint64
		for i := 0; i < 64; i++ {
			v := c.Fill(uint64(i)*16+0x1000, false)
			if v.Valid {
				victims = append(victims, v.LineAddr)
			}
		}
		return victims
	}
	a, b := run(5), run(5)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("victim streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different victims at %d", i)
		}
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: FullyAssociative})
	c.Fill(0x000, false)
	c.Fill(0x100, false)
	// Re-fill 0x000 (e.g. a redundant prefetch): must not duplicate or evict.
	v := c.Fill(0x000, false)
	if v.Valid {
		t.Fatalf("re-fill evicted %+v", v)
	}
	// 0x100 is now LRU.
	v = c.Fill(0x200, false)
	if v.LineAddr != c.LineAddr(0x100) {
		t.Fatalf("victim = %+v, want 0x100 line", v)
	}
}

func TestWriteBackDirtyTracking(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: 1, WritePolicy: WriteBack})
	c.Fill(0x00, false)
	c.Probe(0x00, true)       // store hit dirties the line
	v := c.Fill(0x100, false) // wait: 0x100 maps to set (0x100/16)&1 = 0
	_ = v

	c.Reset()
	c.Fill(0x00, false)
	c.Probe(0x00, true)
	v = c.Fill(0x40, false) // same set 0 under 2 sets of 16B
	if !v.Valid || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty eviction", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: 1, WritePolicy: WriteThrough})
	c.Fill(0x00, false)
	c.Probe(0x00, true)
	v := c.Fill(0x40, false)
	if v.Dirty {
		t.Fatal("write-through produced a dirty victim")
	}
	if c.Stats().Writebacks != 0 {
		t.Errorf("writebacks = %d, want 0", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2, WritePolicy: WriteBack})
	c.Fill(0x00, true)
	present, dirty := c.Invalidate(0x00)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Contains(0x00) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x00)
	if present {
		t.Fatal("second invalidate reported present")
	}
}

func TestAccessFillsOnMiss(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 1})
	hit, _ := c.Access(0x00, false)
	if hit {
		t.Fatal("first access hit")
	}
	hit, _ = c.Access(0x08, false)
	if !hit {
		t.Fatal("second access to same line missed")
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2})
	for i := uint64(0); i < 16; i++ {
		c.Access(i*16, false)
	}
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Errorf("stats after reset = %+v", c.Stats())
	}
	if got := c.ResidentLines(); len(got) != 0 {
		t.Errorf("lines survive reset: %v", got)
	}
}

// TestNewAllocatesOneTagArray pins the flat layout: a set-associative cache is
// the Cache itself plus one array of ways, however many sets it has.
func TestNewAllocatesOneTagArray(t *testing.T) {
	cfg := Config{Size: 4096, LineSize: 16, Assoc: 4}
	if n := testing.AllocsPerRun(100, func() { MustNew(cfg) }); n != 2 {
		t.Fatalf("New made %v allocations, want 2", n)
	}
}

// TestFullyAssociativeMatchesReferenceLRU drives the Probe, Fill and
// Invalidate calls a miss or victim cache makes against an MRU-first
// slice, at every entry count shape the paper sweeps, and checks the
// line and dirty bit of each eviction.
func TestFullyAssociativeMatchesReferenceLRU(t *testing.T) {
	type entry struct {
		la    uint64
		dirty bool
	}
	for _, entries := range []int{1, 2, 3, 4, 5, 7, 15} {
		c := MustNew(Config{Size: entries * 16, LineSize: 16, Assoc: FullyAssociative})
		var ref []entry // MRU first
		refIndex := func(la uint64) int {
			for i, e := range ref {
				if e.la == la {
					return i
				}
			}
			return -1
		}
		rng := rand.New(rand.NewSource(int64(31 + entries)))
		for op := 0; op < 50000; op++ {
			la := uint64(rng.Intn(3 * entries))
			i := refIndex(la)
			switch rng.Intn(3) {
			case 0: // probe: a hit becomes MRU
				if hit := c.Probe(la*16, false); hit != (i >= 0) {
					t.Fatalf("%d entries, op %d: Probe(%d) = %v, ref %v", entries, op, la, hit, i >= 0)
				}
				if i >= 0 {
					e := ref[i]
					ref = append([]entry{e}, append(ref[:i], ref[i+1:]...)...)
				}
			case 1: // fill: refresh and OR dirty, or insert and evict the LRU line
				dirty := rng.Intn(2) == 0
				v := c.Fill(la*16, dirty)
				want := Victim{}
				e := entry{la: la, dirty: dirty}
				if i >= 0 {
					e.dirty = e.dirty || ref[i].dirty
					ref = append(ref[:i], ref[i+1:]...)
				} else if len(ref) == entries {
					lru := ref[entries-1]
					want = Victim{LineAddr: lru.la, Valid: true, Dirty: lru.dirty}
					ref = ref[:entries-1]
				}
				ref = append([]entry{e}, ref...)
				if v != want {
					t.Fatalf("%d entries, op %d: Fill(%d) evicted %+v, ref %+v", entries, op, la, v, want)
				}
			case 2: // invalidate
				present, dirty := c.Invalidate(la * 16)
				if present != (i >= 0) || (i >= 0 && dirty != ref[i].dirty) {
					t.Fatalf("%d entries, op %d: Invalidate(%d) = (%v, %v), ref index %d", entries, op, la, present, dirty, i)
				}
				if i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
			}
			if got := len(c.ResidentLines()); got != len(ref) {
				t.Fatalf("%d entries, op %d: %d resident lines, ref %d", entries, op, got, len(ref))
			}
		}
	}
}

func TestStatsMissRate(t *testing.T) {
	a := Stats{Accesses: 20, Hits: 12, Misses: 8, Fills: 8, Evictions: 4, Writebacks: 2, Writes: 6}
	if got := a.MissRate(); got != 0.4 {
		t.Errorf("MissRate = %v, want 0.4", got)
	}
	if got := (Stats{}).MissRate(); got != 0 {
		t.Errorf("idle MissRate = %v, want 0", got)
	}
}

// refCache is a deliberately naive set-associative LRU model used as the
// oracle for property testing: each set is an ordered slice with
// move-to-front on touch and eviction from the back.
type refCache struct {
	lineSize uint64
	sets     [][]uint64 // sets[i] = line addrs, MRU first
	assoc    int
}

func newRefCache(size, lineSize, assoc int) *refCache {
	lines := size / lineSize
	if assoc == FullyAssociative {
		assoc = lines
	}
	return &refCache{
		lineSize: uint64(lineSize),
		sets:     make([][]uint64, lines/assoc),
		assoc:    assoc,
	}
}

// access returns whether addr hit, filling on miss.
func (r *refCache) access(addr uint64) bool {
	la := addr / r.lineSize
	si := la % uint64(len(r.sets))
	set := r.sets[si]
	for i, tag := range set {
		if tag == la {
			copy(set[1:i+1], set[:i])
			set[0] = la
			return true
		}
	}
	set = append([]uint64{la}, set...)
	if len(set) > r.assoc {
		set = set[:r.assoc]
	}
	r.sets[si] = set
	return false
}

// slotModel is a second, naive model of one cache that, unlike
// refCache, keeps every policy's state: each set is a row of ways, with
// the ways' order of last touch (LRU) or of filling (FIFO), and a copy
// of the Random policy's xorshift generator. A fill takes the first
// empty way, and only a full set's fill draws from the generator.
type slotModel struct {
	cfg   Config
	sets  [][]slot
	order [][]int // per set, way indices, most recent first
	rng   uint64
}

type slot struct {
	la           uint64
	valid, dirty bool
}

func newSlotModel(cfg Config) *slotModel {
	m := &slotModel{cfg: cfg, rng: cfg.RandomSeed | 1}
	assoc := cfg.Lines() / cfg.Sets()
	for range cfg.Sets() {
		m.sets = append(m.sets, make([]slot, assoc))
		m.order = append(m.order, nil)
	}
	return m
}

// touch moves way w of set si to the front of the set's order.
func (m *slotModel) touch(si, w int) {
	o := []int{w}
	for _, x := range m.order[si] {
		if x != w {
			o = append(o, x)
		}
	}
	m.order[si] = o
}

// access is Cache.Access: whether addr hit and the line a miss evicted.
func (m *slotModel) access(addr uint64, write bool) (bool, Victim) {
	la := addr / uint64(m.cfg.LineSize)
	si := int(la % uint64(len(m.sets)))
	set := m.sets[si]
	wb := m.cfg.WritePolicy == WriteBack
	for w, s := range set {
		if s.valid && s.la == la {
			if m.cfg.Replacement == LRU || m.cfg.Replacement == Random {
				m.touch(si, w)
			}
			if wb && write {
				set[w].dirty = true
			}
			return true, Victim{}
		}
	}
	w := -1
	for i, s := range set {
		if !s.valid {
			w = i
			break
		}
	}
	if w < 0 {
		switch m.cfg.Replacement {
		case Random:
			m.rng ^= m.rng << 13
			m.rng ^= m.rng >> 7
			m.rng ^= m.rng << 17
			w = int(m.rng % uint64(len(set)))
		default: // LRU and FIFO: the way last in the order
			w = m.order[si][len(m.order[si])-1]
		}
	}
	var v Victim
	if set[w].valid {
		v = Victim{LineAddr: set[w].la, Valid: true, Dirty: set[w].dirty}
	}
	set[w] = slot{la: la, valid: true, dirty: wb && write}
	m.touch(si, w)
	return false, v
}

// TestCacheMatchesReferenceModel checks Access against slotModel over
// every shape and policy: each hit, each victim's line and dirty bit,
// and the Random generator's state, which an empty way must not
// advance. The LRU write-through runs also check against refCache.
func TestCacheMatchesReferenceModel(t *testing.T) {
	type shape struct{ size, line, assoc int }
	shapes := []shape{
		{256, 16, 1},
		{256, 16, 2},
		{256, 16, 4},
		{256, 16, FullyAssociative},
		{1024, 32, 4},
		{512, 8, 8},
	}
	policies := []struct {
		repl  Replacement
		write WritePolicy
		seed  uint64
	}{
		{LRU, WriteThrough, 0},
		{FIFO, WriteThrough, 0},
		{Random, WriteThrough, 42},
		{LRU, WriteBack, 0},
		{FIFO, WriteBack, 0},
		{Random, WriteBack, 7},
	}
	for _, sh := range shapes {
		for _, p := range policies {
			cfg := Config{Size: sh.size, LineSize: sh.line, Assoc: sh.assoc,
				Replacement: p.repl, WritePolicy: p.write, RandomSeed: p.seed}
			c := MustNew(cfg)
			m := newSlotModel(cfg)
			ref := newRefCache(sh.size, sh.line, sh.assoc)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 20000; i++ {
				// Cluster addresses so hits and conflicts both occur.
				addr := uint64(rng.Intn(4 * sh.size))
				write := rng.Intn(4) == 0
				got, gotV := c.Access(addr, write)
				want, wantV := m.access(addr, write)
				if got != want || gotV != wantV {
					t.Fatalf("%+v access %d addr %#x: cache (%v, %+v), model (%v, %+v)",
						cfg, i, addr, got, gotV, want, wantV)
				}
				if c.rng != m.rng {
					t.Fatalf("%+v access %d: generator %#x, model %#x", cfg, i, c.rng, m.rng)
				}
				if p.repl == LRU && p.write == WriteThrough && got != ref.access(addr) {
					t.Fatalf("%+v access %d addr %#x: cache hit=%v, refCache disagrees", cfg, i, addr, got)
				}
			}
		}
	}
}

// TestAccessSidesMatchesAccess replays one stream of all three kinds
// and of kinds that are none of them through Access on an I and a D
// cache and, on twins, through AccessSides in runs of random length (0
// included): ifetches to the first cache, loads and stores to the
// second, other kinds to neither. Each pairing covers the fused
// direct-mapped loop or the per-reference one. Every miss, with its
// side and side index, each cache's reference count and both caches'
// whole state after each run must agree; a SideMiss is no larger than a
// Miss.
func TestAccessSidesMatchesAccess(t *testing.T) {
	if got, want := reflect.TypeFor[SideMiss]().Size(), reflect.TypeFor[Miss]().Size(); got > want {
		t.Errorf("SideMiss is %d bytes, Miss %d", got, want)
	}
	rng := rand.New(rand.NewSource(7))
	dm := Config{Size: 1024, LineSize: 16, Assoc: 1}
	for _, pair := range [][2]Config{
		{dm, dm},
		{dm, {Size: 2048, LineSize: 32, Assoc: 1, WritePolicy: WriteBack}},
		{dm, {Size: 1024, LineSize: 16, Assoc: 2}},
		{{Size: 1024, LineSize: 16, Assoc: 1, Replacement: FIFO}, dm},
		{dm, {Size: 1024, LineSize: 16, Assoc: 4, Replacement: Random, RandomSeed: 3}},
		{{Size: 64, LineSize: 16, Assoc: FullyAssociative}, {Size: 16, LineSize: 16, Assoc: 1}},
	} {
		for _, heat := range []bool{false, true} {
			var each, sides [2]*Cache
			for k, cfg := range pair {
				each[k], sides[k] = MustNew(cfg), MustNew(cfg)
			}
			if heat { // on the D side: the caches then take the per-reference loop
				sets := pair[1].Sets()
				each[1].InstrumentSets(make([]uint64, sets), make([]uint64, sets), make([]uint64, sets))
				sides[1].InstrumentSets(make([]uint64, sets), make([]uint64, sets), make([]uint64, sets))
			}
			var misses []SideMiss
			for run := 0; run < 200; run++ {
				chunk := make([]memtrace.Access, rng.Intn(300))
				for i := range chunk {
					chunk[i] = memtrace.Access{Addr: memtrace.Addr(rng.Intn(8192)), Kind: memtrace.Kind(rng.Intn(4))}
				}
				var want []SideMiss
				var wantN [2]int
				for _, a := range chunk {
					if a.Kind > memtrace.Store {
						continue
					}
					side := uint8(0)
					if a.Kind.IsData() {
						side = 1
					}
					if hit, v := each[side].Access(uint64(a.Addr), a.Kind == memtrace.Store); !hit {
						want = append(want, SideMiss{Addr: uint64(a.Addr), Victim: v, Index: uint32(wantN[side]), Side: side})
					}
					wantN[side]++
				}
				var n [2]int
				misses, n = AccessSides(sides[0], sides[1], chunk, misses[:0])
				if !slices.Equal(misses, want) || n != wantN {
					t.Fatalf("%+v heat %v run %d: AccessSides misses or counts %v differ from Access's (%v)", pair, heat, run, n, wantN)
				}
				for k := range 2 {
					if !sides[k].SameState(each[k]) {
						t.Fatalf("%+v heat %v run %d cache %d: state differs:\nsides %+v\neach  %+v",
							pair, heat, run, k, sides[k].Stats(), each[k].Stats())
					}
				}
			}
		}
	}
}

// TestAccessChunkMatchesAccess replays one stream through Access and,
// on a twin, through AccessChunk in runs of random length (0 included),
// for every policy and each of AccessChunk's loops, with and without
// per-set counters: each miss, and the two caches' whole state after
// each run, must agree.
func TestAccessChunkMatchesAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []Config{
		{Size: 4096, LineSize: 16, Assoc: 1},
		{Size: 4096, LineSize: 16, Assoc: 1, WritePolicy: WriteBack},
		{Size: 4096, LineSize: 16, Assoc: 1, Replacement: FIFO},
		{Size: 4096, LineSize: 16, Assoc: 1, Replacement: Random, RandomSeed: 3},
		{Size: 4096, LineSize: 16, Assoc: 4},
		{Size: 1024, LineSize: 32, Assoc: 2, Replacement: Random, RandomSeed: 9, WritePolicy: WriteBack},
		{Size: 1024, LineSize: 32, Assoc: 2, WritePolicy: WriteBack},
		{Size: 64, LineSize: 16, Assoc: FullyAssociative},
		{Size: 64, LineSize: 16, Assoc: FullyAssociative, Replacement: FIFO},
		{Size: 16, LineSize: 16, Assoc: 1},
	} {
		for _, heat := range []bool{false, true} {
			each, chunked := MustNew(cfg), MustNew(cfg)
			var eachHeat, chunkHeat [3][]uint64
			if heat {
				for k := range 3 {
					eachHeat[k], chunkHeat[k] = make([]uint64, cfg.Sets()), make([]uint64, cfg.Sets())
				}
				each.InstrumentSets(eachHeat[0], eachHeat[1], eachHeat[2])
				chunked.InstrumentSets(chunkHeat[0], chunkHeat[1], chunkHeat[2])
			}
			var misses []Miss
			for run := 0; run < 200; run++ {
				chunk := make([]memtrace.Access, rng.Intn(300))
				for i := range chunk {
					chunk[i] = memtrace.Access{Addr: memtrace.Addr(rng.Intn(4 * cfg.Size)), Kind: memtrace.Kind(rng.Intn(3))}
				}
				var want []Miss
				for i, a := range chunk {
					if hit, v := each.Access(uint64(a.Addr), a.Kind == memtrace.Store); !hit {
						want = append(want, Miss{Index: i, Addr: uint64(a.Addr), Victim: v})
					}
				}
				misses = chunked.AccessChunk(chunk, misses[:0])
				if !slices.Equal(misses, want) {
					t.Fatalf("%+v heat %v run %d: AccessChunk misses differ from Access's", cfg, heat, run)
				}
				if !chunked.SameState(each) {
					t.Fatalf("%+v heat %v run %d: state differs:\nchunk %+v\neach  %+v", cfg, heat, run, chunked.Stats(), each.Stats())
				}
				for k := range 3 {
					if !slices.Equal(chunkHeat[k], eachHeat[k]) {
						t.Fatalf("%+v run %d: per-set counters %d differ", cfg, run, k)
					}
				}
			}
		}
	}
}

func TestDirectMappedEquivalentToOneWay(t *testing.T) {
	f := func(seed int64) bool {
		a := MustNew(Config{Size: 512, LineSize: 16, Assoc: 1})
		rng := rand.New(rand.NewSource(seed))
		ref := newRefCache(512, 16, 1)
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(2048))
			gotHit, _ := a.Access(addr, false)
			if gotHit != ref.access(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: total fills never exceed misses, and hits+misses == accesses.
func TestStatsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		c := MustNew(Config{Size: 256, LineSize: 16, Assoc: 2})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			c.Access(uint64(rng.Intn(1024)), rng.Intn(4) == 0)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Fills <= st.Misses+1 &&
			st.Evictions <= st.Fills
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher associativity at equal capacity never increases misses
// for an LRU cache replaying the same (read-only) stream... not true in
// general (Belady anomalies are FIFO-only; LRU is a stack algorithm per
// set, not across geometry), so instead verify the classical stack
// property: a fully-associative LRU cache of larger capacity never misses
// on an access that a smaller one hits.
func TestLRUStackProperty(t *testing.T) {
	small := MustNew(Config{Size: 256, LineSize: 16, Assoc: FullyAssociative})
	big := MustNew(Config{Size: 1024, LineSize: 16, Assoc: FullyAssociative})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30000; i++ {
		addr := uint64(rng.Intn(8192))
		smallHit, _ := small.Access(addr, false)
		bigHit, _ := big.Access(addr, false)
		if smallHit && !bigHit {
			t.Fatalf("inclusion violated at access %d addr %#x", i, addr)
		}
	}
}

func BenchmarkDirectMappedAccess(b *testing.B) {
	c := MustNew(Config{Size: 4096, LineSize: 16, Assoc: 1})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], false)
	}
}

func Benchmark4WayAccess(b *testing.B) {
	c := MustNew(Config{Size: 4096, LineSize: 16, Assoc: 4})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], false)
	}
}

func TestResidentLines(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2})
	if got := c.ResidentLines(); len(got) != 0 {
		t.Fatalf("empty cache has residents: %v", got)
	}
	c.Fill(0x00, false)
	c.Fill(0x40, false)
	got := c.ResidentLines()
	if len(got) != 2 {
		t.Fatalf("residents = %v", got)
	}
	want := map[uint64]bool{c.LineAddr(0x00): true, c.LineAddr(0x40): true}
	for _, la := range got {
		if !want[la] {
			t.Errorf("unexpected resident line %#x", la)
		}
	}
}
