package core

import (
	"sort"
	"testing"
	"testing/quick"

	"jouppi/internal/cache"
)

// testing/quick properties of the paper's auxiliary structures, driven by
// randomized access streams against a deliberately tiny L1 so conflicts,
// swaps, and evictions happen constantly.

// residentMultiset returns the sorted combined multiset of L1-resident
// and auxiliary-resident line addresses.
func residentMultiset(l1 *cache.Cache, aux *Level) []uint64 {
	out := append(l1.ResidentLines(), aux.AuxResidentLines()...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameMultiset(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: a victim-cache hit is a swap — the line moves from the victim
// cache into the L1 and the displaced L1 line takes its slot — so the
// combined multiset of resident blocks is exactly preserved.
func TestQuickVictimSwapPreservesResidents(t *testing.T) {
	f := func(seed int64, entriesSel uint8) bool {
		entries := int(entriesSel%4) + 1
		l1 := cache.MustNew(cache.Config{Name: "L1", Size: 512, LineSize: 16, Assoc: 1})
		vc := NewVictimCache(l1, entries, nil, DefaultTiming())
		for i, addr := range randomStream(seed, 2000) {
			before := residentMultiset(l1, vc)
			r := vc.Access(addr, i%7 == 0)
			if r.Served == ServedVictim {
				if !sameMultiset(before, residentMultiset(l1, vc)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: miss-cache occupancy never exceeds its configured capacity at
// any point in any access stream.
func TestQuickMissCacheOccupancyBounded(t *testing.T) {
	f := func(seed int64, entriesSel uint8) bool {
		entries := int(entriesSel%8) + 1
		l1 := cache.MustNew(cache.Config{Name: "L1", Size: 512, LineSize: 16, Assoc: 1})
		mc := NewMissCache(l1, entries, nil, DefaultTiming())
		for i, addr := range randomStream(seed, 2000) {
			mc.Access(addr, i%5 == 0)
			if got := len(mc.AuxResidentLines()); got > entries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every stream buffer's queued prefetch addresses are monotone
// in its stride — consecutive valid entries differ by exactly the way's
// line-address stride, and the next line to prefetch continues the
// progression. Holds for the unit-stride paper model and the
// stride-detecting extension alike.
func TestQuickStreamBufferStrideMonotone(t *testing.T) {
	check := func(sb *Level) bool {
		for w := range sb.set.ways {
			way := &sb.set.ways[w]
			if !way.active || way.stride == 0 {
				if way.active && way.stride == 0 {
					return false
				}
				continue
			}
			for i := 0; i+1 < way.n; i++ {
				if way.entries[i+1].lineAddr != way.entries[i].lineAddr+uint64(way.stride) {
					return false
				}
			}
			if way.n > 0 && !way.edge &&
				way.nextLine != way.entries[way.n-1].lineAddr+uint64(way.stride) {
				return false
			}
		}
		return true
	}
	f := func(seed int64, waysSel, depthSel uint8, detect, quasi bool) bool {
		ways := int(waysSel%4) + 1
		depth := int(depthSel%6) + 1
		l1 := cache.MustNew(cache.Config{Name: "L1", Size: 512, LineSize: 16, Assoc: 1})
		sb := NewStreamBuffer(l1, StreamConfig{Ways: ways, Depth: depth,
			Quasi: quasi, DetectStride: detect}, nil, fastFill())
		for _, addr := range randomStream(seed, 1500) {
			sb.Access(addr, false)
			if !check(sb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
