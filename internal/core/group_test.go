package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
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

// chunkLen turns a fuzz byte into a chunk length: 0, 1, 4096, or 2–111.
func chunkLen(b byte) int {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 7:
		return 4096
	}
	return int(b%8) + 7*int(b>>3&15)
}

// FuzzGroupVsLevels replays a trace with stores through levels sharing
// one write-through cache in a core.Group and through the same levels
// each built on its own cache and driven by Level.Access. The group
// takes the trace in chunks of fuzzed lengths (0, 1 and 4096 among
// them), each through AccessChunk, and flushes after each chunk. Every
// grouped level must match its own-cache twin on its Stats, field by
// field, at every flush; on the sequence of its Fetcher calls; and on
// its tap's Miss calls. The shared cache must end in its twins' state
// (cache.Cache.SameState). mode picks the replacement policy, per-set
// counters on the shared cache and the first twin's (so AccessChunk
// takes the generic path), and an observe hook that must see every
// reference, in order, once the first level has resolved it.
func FuzzGroupVsLevels(f *testing.F) {
	for seed := uint32(0); seed < 6; seed++ {
		f.Add(byte(seed*23), byte(seed*5), []byte{byte(seed * 41), 7, 0x81, 1, 0, byte(seed*13 + 2)},
			refSeedData(seed+40, 24), refSeedData(seed, 3000)) // 2- and 4-way too
	}
	f.Fuzz(func(t *testing.T, geom, mode byte, chunks, auxes, data []byte) {
		cfg := cache.Config{
			Name:        "L1",
			Size:        256 << (geom % 5),    // 256B–4KB
			LineSize:    4 << (geom / 5 % 5),  // 4B–64B
			Assoc:       1 << (geom / 25 % 3), // direct-mapped, 2- or 4-way
			Replacement: cache.Replacement(mode % 3),
			RandomSeed:  uint64(geom),
		}
		heat, observing := mode&4 != 0, mode&8 != 0
		chunks = append(slices.Clip(chunks), 7)        // a 4096 chunk each round, so the replay ends
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
		var sharedHeat, twinHeat [3][]uint64
		if heat {
			for k := range 3 {
				sharedHeat[k], twinHeat[k] = make([]uint64, cfg.Sets()), make([]uint64, cfg.Sets())
			}
			l1.InstrumentSets(sharedHeat[0], sharedHeat[1], sharedHeat[2])
			alone[0].fe.Cache().InstrumentSets(twinHeat[0], twinHeat[1], twinHeat[2])
		}
		groups, err := core.Groups(fes...)
		if err != nil || len(groups) != 1 {
			t.Fatalf("Groups: %d groups, err %v; want one", len(groups), err)
		}
		g := groups[0]
		addrs, writes := refAddrs(data, cfg.Size, cfg.LineSize)
		refs := make([]memtrace.Access, len(addrs))
		for i, addr := range addrs {
			refs[i] = memtrace.Access{Addr: memtrace.Addr(addr), Kind: memtrace.Load}
			if writes[i] {
				refs[i].Kind = memtrace.Store
			}
		}
		hits := make([]bool, len(refs)) // as the first own-cache twin answered
		// misses[i] counts the misses before reference i.
		misses := make([]int, len(refs)+1)
		for done, k := 0, 0; done < len(refs); k++ {
			end := min(done+chunkLen(chunks[k%len(chunks)]), len(refs))
			chunk := refs[done:end]
			for i := done; i < end; i++ {
				for j, a := range alone {
					r := a.fe.Access(addrs[i], writes[i])
					if j == 0 {
						hits[i], misses[i+1] = r.L1Hit, misses[i]
						if !r.L1Hit {
							misses[i+1]++
						}
					} else if r.L1Hit != hits[i] {
						t.Fatalf("access %d: own caches disagree on a hit", i)
					}
				}
			}
			var observe func(int, bool)
			seen := done
			if observing {
				observe = func(i int, hit bool) {
					if done+i != seen || hit != hits[seen] {
						t.Fatalf("observe(%d, %v) at access %d: want (%d, %v)", i, hit, done+i, seen-done, hits[seen])
					}
					// The first level has resolved this reference
					// and no later one: its tap saw every miss.
					if got, want := len(grouped[0].tap.misses), misses[seen+1]; got != want {
						t.Fatalf("observe at access %d: first level resolved %d misses, want %d", seen, got, want)
					}
					seen++
				}
			}
			ms := g.AccessChunk(chunk, observe)
			if observing && seen != end {
				t.Fatalf("chunk [%d, %d): observed up to %d", done, end, seen)
			}
			if len(ms) != misses[end]-misses[done] {
				t.Fatalf("chunk [%d, %d): %d misses, own cache %d", done, end, len(ms), misses[end]-misses[done])
			}
			for _, m := range ms {
				if hits[done+m.Index] || m.Addr != addrs[done+m.Index] {
					t.Fatalf("chunk [%d, %d): miss %+v is no own-cache miss", done, end, m)
				}
			}
			done = end
			g.Flush()
			for j, a := range alone {
				a.fe.Flush()
				if d := statsDiff(grouped[j].fe.Stats(), a.fe.Stats()); d != "" {
					t.Fatalf("%s (%+v) after access %d: grouped Stats differ:%s", a.fe.Name(), cfg, end-1, d)
				}
			}
		}
		for j, a := range alone {
			gl, name := grouped[j], a.fe.Name()
			if !slices.Equal(gl.fetches, a.fetches) {
				t.Errorf("%s: grouped level made %d fetches, own cache %d, or in another order", name, len(gl.fetches), len(a.fetches))
			}
			if !slices.Equal(gl.tap.misses, a.tap.misses) {
				t.Errorf("%s: grouped tap saw %d misses, own cache %d, or others", name, len(gl.tap.misses), len(a.tap.misses))
			}
			if !l1.SameState(a.fe.Cache()) {
				t.Errorf("%s: shared cache Stats %+v, own cache %+v, or other contents", name, l1.Stats(), a.fe.Cache().Stats())
			}
		}
		for k := range 3 {
			if !slices.Equal(sharedHeat[k], twinHeat[k]) {
				t.Errorf("per-set counters %d: shared cache's differ from its twin's", k)
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

// TestSplitOnRejects pins SplitOn's checks: caches a group may share.
func TestSplitOnRejects(t *testing.T) {
	cfg := cache.Config{Name: "L1", Size: 1024, LineSize: 16, Assoc: 1}
	ic, dc := cache.MustNew(cfg), cache.MustNew(cfg)
	i, d := core.NewBaseline(ic, nil, core.DefaultTiming()), core.NewBaseline(dc, nil, core.DefaultTiming())
	if _, err := core.SplitOn(ic, cache.MustNew(cache.Config{Name: "L1", Size: 2048, LineSize: 16, Assoc: 1}), []*core.Level{i}, []*core.Level{d}); err == nil {
		t.Error("SplitOn accepted a D level of another configuration")
	}
	wb := cfg
	wb.WritePolicy = cache.WriteBack
	wbc := cache.MustNew(wb)
	if _, err := core.SplitOn(ic, wbc, []*core.Level{i}, []*core.Level{core.NewBaseline(wbc, nil, core.DefaultTiming())}); err == nil {
		t.Error("SplitOn accepted a write-back D cache")
	}
	if _, err := core.SplitOn(ic, dc, []*core.Level{i}, []*core.Level{d}); err != nil {
		t.Errorf("SplitOn: %v", err)
	}
}
