package core_test

import (
	"slices"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/workload"
)

// oracleEntries is the largest miss or victim cache the stack oracle
// checks: the range of Figures 3-3 and 3-5.
const oracleEntries = 15

// lineStack is a most-recent-first list of line addresses, cut at
// oracleEntries: the top k entries are what a k-entry structure holds, so
// nothing deeper can decide a hit at any checked size.
type lineStack []uint64

// depth returns line's 1-based position from the top, or 0 if absent.
func (s lineStack) depth(line uint64) int { return slices.Index(s, line) + 1 }

// remove deletes line if present.
func (s lineStack) remove(line uint64) lineStack {
	if d := s.depth(line); d > 0 {
		return slices.Delete(s, d-1, d)
	}
	return s
}

// push puts line on top, dropping the entry that falls off the cut.
func (s lineStack) push(line uint64) lineStack {
	s = slices.Insert(s, 0, line)
	if len(s) > oracleEntries {
		s = s[:oracleEntries]
	}
	return s
}

// stackHits replays the data side of tr through a direct-mapped L1 of
// slots lines and returns, for every size k from 1 to oracleEntries, the
// hits a k-entry miss cache and a k-entry victim cache would score. Every
// outcome of an L1 miss fills the L1 the same way, so the L1's miss and
// eviction streams do not depend on the size, and one pass serves all
// sizes:
//
//   - a miss cache is an LRU stack over the L1-miss lines: each miss
//     moves its line to the top, and a k-entry cache hits when the line
//     was in the top k;
//   - a victim cache is an LRU stack with deletion over the evicted
//     lines: each miss removes its line (it is back in the L1) and pushes
//     the line it displaced, and a k-entry cache hits when the line was
//     in the top k.
func stackHits(tr *memtrace.Trace, slots, lineSize int) (mc, vc [oracleEntries + 1]uint64) {
	l1 := newRefL1(slots)
	var missed, evicted lineStack
	tr.Each(func(a memtrace.Access) {
		line := uint64(a.Addr) / uint64(lineSize)
		if !a.Kind.IsData() || l1.hit(line) {
			return
		}
		credit(&mc, missed.depth(line))
		missed = missed.remove(line).push(line)
		credit(&vc, evicted.depth(line))
		evicted = evicted.remove(line)
		if old, displaced := l1.fill(line); displaced {
			evicted = evicted.push(old)
		}
	})
	return mc, vc
}

// credit books a hit at stack depth d to every size that holds it: d and
// up. A depth of 0 (absent) is a miss at every size.
func credit(hits *[oracleEntries + 1]uint64, d int) {
	for k := d; d > 0 && k <= oracleEntries; k++ {
		hits[k]++
	}
}

// TestAllSizesStackOracle checks the level's miss and victim caches at
// every size from 1 to 15 against the one-pass stack models, which share
// no code with the level's fully-associative buffers: D side, 4KB
// direct-mapped L1 with 16B lines, all six benchmarks at scale 0.1.
func TestAllSizesStackOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("six-benchmark oracle skipped in -short mode")
	}
	const size, lineSize = 4096, 16
	for _, name := range workload.Names() {
		tr := workload.GenerateTrace(workload.MustByName(name), 0.1)
		mc, vc := stackHits(tr, size/lineSize, lineSize)
		for k := 1; k <= oracleEntries; k++ {
			l1 := func() *cache.Cache {
				return cache.MustNew(cache.Config{Size: size, LineSize: lineSize, Assoc: 1})
			}
			mcl := core.NewMissCache(l1(), k, nil, core.DefaultTiming())
			vcl := core.NewVictimCache(l1(), k, nil, core.DefaultTiming())
			tr.Each(func(a memtrace.Access) {
				if a.Kind.IsData() {
					mcl.Access(uint64(a.Addr), a.Kind == memtrace.Store)
					vcl.Access(uint64(a.Addr), a.Kind == memtrace.Store)
				}
			})
			if got := mcl.Stats().MissCacheHits; got != mc[k] {
				t.Errorf("%s: %d-entry miss cache hits = %d, LRU stack model says %d", name, k, got, mc[k])
			}
			if got := vcl.Stats().VictimHits; got != vc[k] {
				t.Errorf("%s: %d-entry victim cache hits = %d, deletion stack model says %d", name, k, got, vc[k])
			}
		}
		t.Logf("%s: mc15=%d vc15=%d", name, mc[oracleEntries], vc[oracleEntries])
	}
}
