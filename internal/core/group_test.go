package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
)

// fetch is one Fetcher call.
type fetch struct {
	line     uint64
	prefetch bool
}

// groupAux turns four fuzz bytes into a level's helper structures: a
// miss cache of 0–15 entries, or a victim cache of 0–15 entries with
// 0–4 stream buffers of depth 0–5 (0 takes the default), run limit 0–7
// and either lookup extension.
func groupAux(b []byte) core.Aux {
	if b[0]&1 == 0 {
		return core.Aux{MissCache: int(b[1] % 16)}
	}
	return core.Aux{Victim: int(b[1] % 16), Stream: core.StreamConfig{
		Ways:         int(b[2] % 5),
		Depth:        int(b[2] >> 3 % 6),
		RunLimit:     int(b[3] % 8),
		Quasi:        b[3]&8 != 0,
		DetectStride: b[3]&16 != 0,
	}}
}

// groupedLevel is one level of the group under test, or the same level
// built on its own cache, with what it sent its Fetcher and its tap.
type groupedLevel struct {
	fe      *core.Level
	fetches []fetch
	tap     recordingTap
}

func newGroupedLevel(t *testing.T, l1 *cache.Cache, aux core.Aux, byAccess bool) *groupedLevel {
	g := &groupedLevel{tap: recordingTap{byAccess: byAccess}}
	fe, err := core.NewLevel(l1, aux, func(line uint64, prefetch bool) {
		g.fetches = append(g.fetches, fetch{line, prefetch})
	}, core.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	fe.SetTap(&g.tap)
	g.fe = fe
	return g
}

// statsDiff names the fields in which two Stats differ.
func statsDiff(got, want core.Stats) string {
	var out string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		if g.Field(i).Uint() != w.Field(i).Uint() {
			out += fmt.Sprintf(" %s %d (want %d)", g.Type().Field(i).Name, g.Field(i).Uint(), w.Field(i).Uint())
		}
	}
	return out
}

// FuzzGroupVsLevels replays a trace with stores through levels sharing
// one write-through cache in a core.Group and through the same levels
// each built on its own cache and driven by Level.Access. Every grouped
// level must match its own-cache twin on its Stats, field by field, at
// every flush; on the sequence of its Fetcher calls; and on its tap's
// Miss calls. The shared cache must count what each own cache counts.
func FuzzGroupVsLevels(f *testing.F) {
	for seed := uint32(0); seed < 6; seed++ {
		f.Add(byte(seed*23), byte(seed*5), refSeedData(seed+40, 24), refSeedData(seed, 3000)) // 2- and 4-way too
	}
	f.Fuzz(func(t *testing.T, geom, flushSel byte, auxes, data []byte) {
		cfg := cache.Config{
			Name:     "L1",
			Size:     256 << (geom % 5),    // 256B–4KB
			LineSize: 4 << (geom / 5 % 5),  // 4B–64B
			Assoc:    1 << (geom / 25 % 3), // direct-mapped, 2- or 4-way LRU
		}
		flushEvery := 1 + int(flushSel)*4
		auxes = append(slices.Clip(auxes), 0, 0, 0, 0) // at least one level: a plain cache
		l1 := cache.MustNew(cfg)
		var grouped, alone []*groupedLevel
		var fes []*core.Level
		for i := 0; len(auxes) >= 4 && i < 6; i, auxes = i+1, auxes[4:] {
			aux := groupAux(auxes)
			grouped = append(grouped, newGroupedLevel(t, l1, aux, i%2 == 0))
			alone = append(alone, newGroupedLevel(t, cache.MustNew(cfg), aux, i%2 == 0))
			fes = append(fes, grouped[i].fe)
		}
		groups, err := core.Groups(fes...)
		if err != nil || len(groups) != 1 {
			t.Fatalf("Groups: %d groups, err %v; want one", len(groups), err)
		}
		addrs, writes := refAddrs(data, cfg.Size, cfg.LineSize)
		for i, addr := range addrs {
			hit := groups[0].Access(addr, writes[i])
			for _, a := range alone {
				if r := a.fe.Access(addr, writes[i]); r.L1Hit != hit {
					t.Fatalf("access %d (%#x): group hit %v, own cache %v", i, addr, hit, r.L1Hit)
				}
			}
			if (i+1)%flushEvery != 0 && i+1 != len(addrs) {
				continue
			}
			groups[0].Flush()
			for j, a := range alone {
				a.fe.Flush()
				if d := statsDiff(grouped[j].fe.Stats(), a.fe.Stats()); d != "" {
					t.Fatalf("%s (%+v) after access %d: grouped Stats differ:%s", a.fe.Name(), cfg, i, d)
				}
			}
		}
		for j, a := range alone {
			g, name := grouped[j], a.fe.Name()
			if !slices.Equal(g.fetches, a.fetches) {
				t.Errorf("%s: grouped level made %d fetches, own cache %d, or in another order", name, len(g.fetches), len(a.fetches))
			}
			if !slices.Equal(g.tap.misses, a.tap.misses) {
				t.Errorf("%s: grouped tap saw %d misses, own cache %d, or others", name, len(g.tap.misses), len(a.tap.misses))
			}
			if got, want := l1.Stats(), a.fe.Cache().Stats(); got != want {
				t.Errorf("%s: shared cache Stats %+v, own cache %+v", name, got, want)
			}
		}

	})
}

// TestGroupsRejectWriteBack pins that a write-back cache is never
// shared: its dirty lines depend on the helper structures.
func TestGroupsRejectWriteBack(t *testing.T) {
	l1 := cache.MustNew(cache.Config{Name: "L1", Size: 1024, LineSize: 16, Assoc: 1, WritePolicy: cache.WriteBack})
	fe := core.NewVictimCache(l1, 4, nil, core.DefaultTiming())
	if _, err := core.Groups(fe); err == nil {
		t.Fatal("Groups accepted a level on a write-back cache")
	}
}
