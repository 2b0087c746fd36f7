package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jouppi/internal/memtrace"
)

// searchShapes are the set sizes whose searches differ: the 4-way mask
// search, the 2- and 8-way loops beside it, and fully-associative caches
// of every size the paper's miss and victim caches take, 1–15 lines.
// Each comes under every replacement policy.
func searchShapes() []Config {
	var geoms []Config
	for _, assoc := range []int{2, 4, 8} {
		geoms = append(geoms, Config{Size: 1024, LineSize: 16, Assoc: assoc})
	}
	for n := 1; n <= 15; n++ {
		geoms = append(geoms, Config{Size: 16 * n, LineSize: 16, Assoc: FullyAssociative})
	}
	var out []Config
	for _, g := range geoms {
		for _, repl := range []Replacement{LRU, FIFO, Random} {
			g.Replacement, g.RandomSeed = repl, 11
			out = append(out, g)
		}
	}
	return out
}

// setZeroLine returns the byte address of the k-th line, k ≥ 1, that
// maps to set 0 of cfg: never line 0 itself.
func setZeroLine(cfg Config, k int) uint64 {
	return uint64(k * cfg.Sets() * cfg.LineSize)
}

// TestSearchLineZeroMissesEmptyWays probes line address 0 against sets
// whose ways are empty or invalidated, and so hold tag 0 with the valid
// bit clear: every lookup (Probe, Contains, Invalidate, AccessChunk)
// must miss, and must hit once line 0 is filled.
func TestSearchLineZeroMissesEmptyWays(t *testing.T) {
	for _, cfg := range searchShapes() {
		c := MustNew(cfg)
		assoc := cfg.Lines() / cfg.Sets()
		misses := func(when string) {
			t.Helper()
			if c.Contains(0) {
				t.Fatalf("%+v %s: Contains(0)", cfg, when)
			}
			twin := MustNew(cfg)
			twin.CopyState(c)
			if present, _ := twin.Invalidate(0); present {
				t.Fatalf("%+v %s: Invalidate(0) found the line", cfg, when)
			}
			if got := twin.AccessChunk([]memtrace.Access{{Addr: 0, Kind: memtrace.Load}}, nil); len(got) != 1 {
				t.Fatalf("%+v %s: AccessChunk hit line 0", cfg, when)
			}
			if c.Probe(0, false) {
				t.Fatalf("%+v %s: Probe(0) hit", cfg, when)
			}
		}
		misses("empty")
		for k := 1; k <= assoc; k++ {
			c.Fill(setZeroLine(cfg, k), false)
		}
		misses("full")
		for k := 1; k <= assoc; k += 2 {
			c.Invalidate(setZeroLine(cfg, k))
		}
		misses("partly invalidated")
		for k := 2; k <= assoc; k += 2 {
			c.Invalidate(setZeroLine(cfg, k))
		}
		misses("wholly invalidated")
		c.Fill(0, false)
		if !c.Contains(0) || !c.Probe(0, false) {
			t.Fatalf("%+v: line 0 missed once filled", cfg)
		}
	}
}

// TestFillTakesFirstEmptyWay fills set 0, empties a chosen subset of its
// ways and fills one more line: it must land in the first empty way,
// displace nothing and leave the Random generator as it was, under
// every policy.
func TestFillTakesFirstEmptyWay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range searchShapes() {
		assoc := cfg.Lines() / cfg.Sets()
		for trial := 0; trial < 40; trial++ {
			c := MustNew(cfg)
			for k := 1; k <= assoc; k++ {
				c.Fill(setZeroLine(cfg, k), false)
			}
			// Empty each way with probability one half, and one at least.
			empty := -1
			for j := assoc - 1; j >= 0; j-- {
				if rng.Intn(2) == 0 || (j == 0 && empty < 0) {
					c.Invalidate(setZeroLine(cfg, j+1))
					empty = j
				}
			}
			// Touch the valid ways in a random order, so recency does not
			// follow the way order.
			for _, j := range rng.Perm(assoc) {
				c.Probe(setZeroLine(cfg, j+1), false)
			}
			gen := c.rng
			line := setZeroLine(cfg, assoc+1)
			if v := c.Fill(line, false); v.Valid {
				t.Fatalf("%+v: fill into a set with an empty way displaced %+v", cfg, v)
			}
			if got := c.ways[empty]; !got.valid || got.tag != c.LineAddr(line) {
				t.Fatalf("%+v trial %d: fill missed the first empty way %d", cfg, trial, empty)
			}
			if c.rng != gen {
				t.Fatalf("%+v: a fill into a set with an empty way drew from the generator", cfg)
			}
		}
	}
}

// invalidate is Cache.Invalidate on the model: the way empties and
// leaves the set's order.
func (m *slotModel) invalidate(addr uint64) (present, dirty bool) {
	la := addr / uint64(m.cfg.LineSize)
	si := int(la % uint64(len(m.sets)))
	for w, s := range m.sets[si] {
		if s.valid && s.la == la {
			m.sets[si][w] = slot{}
			m.order[si] = slices.DeleteFunc(m.order[si], func(x int) bool { return x == w })
			return true, s.dirty
		}
	}
	return false, false
}

// TestSearchMatchesSlotModel drives every search shape under every
// policy with accesses, stores and invalidations against slotModel: each
// hit, victim and invalidation, and the Random generator, which only a
// full set's fill may advance, must agree after every operation. A twin
// takes the same accesses through AccessChunk and must end each run in
// the same state.
func TestSearchMatchesSlotModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cfg := range searchShapes() {
		for _, wp := range []WritePolicy{WriteThrough, WriteBack} {
			cfg := cfg
			cfg.WritePolicy = wp
			name := fmt.Sprintf("%+v", cfg)
			c, chunked, m := MustNew(cfg), MustNew(cfg), newSlotModel(cfg)
			span := 3 * cfg.Lines() * cfg.LineSize
			for run := 0; run < 60; run++ {
				chunk := make([]memtrace.Access, rng.Intn(64))
				for i := range chunk {
					chunk[i] = memtrace.Access{Addr: memtrace.Addr(rng.Intn(span)), Kind: memtrace.Kind(1 + rng.Intn(2))}
				}
				var want []Miss
				for i, a := range chunk {
					write := a.Kind == memtrace.Store
					got, gotV := c.Access(uint64(a.Addr), write)
					exp, expV := m.access(uint64(a.Addr), write)
					if got != exp || gotV != expV || c.rng != m.rng {
						t.Fatalf("%s run %d access %#x: cache (%v, %+v), model (%v, %+v)", name, run, a.Addr, got, gotV, exp, expV)
					}
					if !got {
						want = append(want, Miss{Index: i, Addr: uint64(a.Addr), Victim: gotV})
					}
				}
				if got := chunked.AccessChunk(chunk, nil); !slices.Equal(got, want) {
					t.Fatalf("%s run %d: AccessChunk misses differ from Access's", name, run)
				}
				if !chunked.SameState(c) {
					t.Fatalf("%s run %d: AccessChunk left another state", name, run)
				}
				// Invalidate a few lines, present or not, on all three.
				for range rng.Intn(4) {
					addr := uint64(rng.Intn(span))
					p, d := c.Invalidate(addr)
					mp, md := m.invalidate(addr)
					chunked.Invalidate(addr)
					if p != mp || d != md {
						t.Fatalf("%s run %d invalidate %#x: cache (%v, %v), model (%v, %v)", name, run, addr, p, d, mp, md)
					}
				}
			}
		}
	}
}
