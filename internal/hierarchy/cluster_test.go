package hierarchy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// clusterGeometry is L1 geometry k of three picked by sel: 512B–4KB,
// 16B or 32B lines, direct-mapped or 2-way LRU, and write-back when
// sel's top bit is set, which keeps the caches of that geometry out of
// every cluster.
func clusterGeometry(sel byte, k int) cache.Config {
	g := int(sel) + 7*k
	cfg := cache.Config{Size: 512 << (g % 4), LineSize: 16 << (g / 4 % 2), Assoc: 1 << (g / 8 % 2)}
	if k == 2 && sel&0x80 != 0 {
		cfg.WritePolicy = cache.WriteBack
	}
	return cfg
}

// clusterAux turns three fuzz bytes into first-level helper structures:
// a miss cache of 0–7 entries, or a victim cache of 0–7 entries with
// 0–3 stream buffers of depth 0–3 (0 takes the default), either lookup
// extension and a run limit of 0–3.
func clusterAux(b []byte) core.Aux {
	if b[0]&1 == 0 {
		return core.Aux{MissCache: int(b[0] >> 1 % 8)}
	}
	return core.Aux{Victim: int(b[0] >> 1 % 8), Stream: core.StreamConfig{
		Ways:         int(b[1] % 4),
		Depth:        int(b[1] >> 2 % 4),
		RunLimit:     int(b[2] % 4),
		Quasi:        b[2]&4 != 0,
		DetectStride: b[2]&8 != 0,
	}}
}

// clusterConfigs builds up to six system configurations from seven
// fuzz bytes each: each side's L1 is one of the geometries (two or
// three), with its own helper structures; every system has a small L2,
// with a victim cache when the last byte says so.
func clusterConfigs(geoms byte, spec []byte) []Config {
	n := 2 + int(geoms%2)
	var cfgs []Config
	spec = append(slices.Clip(spec), make([]byte, 7)...) // at least one system
	for ; len(spec) >= 7 && len(cfgs) < 6; spec = spec[7:] {
		c := Config{
			L1I:      clusterGeometry(geoms>>1, int(spec[0])%n),
			L1D:      clusterGeometry(geoms>>1, int(spec[0]>>4)%n),
			L2:       cache.Config{Name: "L2", Size: 8192, LineSize: 64, Assoc: 1},
			IAugment: clusterAux(spec[1:4]),
			DAugment: clusterAux(spec[3:6]),
		}
		c.L1I.Name, c.L1D.Name = "L1I", "L1D"
		if spec[6]&1 != 0 {
			c.L2Augment = core.Aux{Victim: 2}
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// clusterTrace turns fuzz bytes into references, three bytes each: the
// kind, then a word address under 16 KB, four times the largest L1, so
// every geometry conflicts. A kind byte of 0xf8 or more makes a kind
// that is no ifetch, load or store (3–10), which every path must skip:
// one reference in 32 of a random mix.
func clusterTrace(data []byte) []memtrace.Access {
	var out []memtrace.Access
	for ; len(data) >= 3; data = data[3:] {
		kind := memtrace.Kind(data[0] % 3)
		if data[0] >= 0xf8 {
			kind = memtrace.Kind(data[0] - 0xf8 + 3)
		}
		out = append(out, memtrace.Access{
			Kind: kind,
			Addr: memtrace.Addr((uint64(data[1])<<8 | uint64(data[2])) % 16384 &^ 3),
		})
	}
	return out
}

// clusterChunkLen turns a fuzz byte into a chunk length: 0, 1, 4096, or
// 2–111, odd lengths among them.
func clusterChunkLen(b byte) int {
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

// l2Fetch is one first-level fetch as the L2 receives it.
type l2Fetch struct {
	side     byte // 'I' or 'D'
	line     uint64
	prefetch bool
}

// recordFetches returns a system built from cfg whose first-level
// fetches are appended to *log in the order the L2 receives them.
func recordFetches(cfg Config, log *[]l2Fetch) *System {
	s := MustNew(cfg)
	s.fetchHook = func(side byte, line uint64, prefetch bool) {
		*log = append(*log, l2Fetch{side, line, prefetch})
	}
	return s
}

// diffFields names the fields in which two values of one struct type
// differ, floats by their bits.
func diffFields(prefix string, got, want reflect.Value) []string {
	switch got.Kind() {
	case reflect.Struct:
		var out []string
		for i := range got.NumField() {
			out = append(out, diffFields(prefix+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i))...)
		}
		return out
	case reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return []string{fmt.Sprintf("%s %v (want %v)", prefix, got.Float(), want.Float())}
		}
	default:
		if !got.Equal(want) {
			return []string{fmt.Sprintf("%s %v (want %v)", prefix, got, want)}
		}
	}
	return nil
}

// clusterSeed returns a random reference mix over the fuzz address
// space, in clusterTrace's encoding.
func clusterSeed(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	out := make([]byte, 3*n)
	r.Read(out)
	return out
}

// FuzzGroupedSystemsVsSystems replays a trace through systems on two or
// three L1 geometries, clustered by Clusters and fed in chunks of fuzzed
// lengths (0, 1, odd lengths and 4096 among them), and through the same
// systems each replayed alone by System.Access. The trace holds
// references of no first-level kind, which both must skip. After
// release every clustered system must match its twin on its Results,
// field by field, and on the sequence of first-level fetches its L2
// received (line, demand or prefetch, side), and its own L1I and L1D
// must hold the twin's lines, replacement state and Stats. The clusters
// must cover the systems once each, with one per distinct shareable L1
// pair.
func FuzzGroupedSystemsVsSystems(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(byte(seed*37), []byte{byte(seed*11 + 2), 1, 0, 0x1f, 7}, clusterSeed(seed+50, 6*7), clusterSeed(seed, 2000))
	}
	f.Fuzz(func(t *testing.T, geoms byte, chunks, spec, data []byte) {
		cfgs := clusterConfigs(geoms, spec)
		trace := clusterTrace(data)
		chunks = append(slices.Clip(chunks), 7) // a 4096 chunk each round, so the replay ends
		grouped := make([]*System, len(cfgs))
		fetched := make([][]l2Fetch, len(cfgs))
		for i, c := range cfgs {
			grouped[i] = recordFetches(c, &fetched[i])
		}
		clusters, release := Clusters(grouped...)
		var members int
		pairs := map[[2]cache.Config]bool{}
		for _, c := range clusters {
			members += len(c.systems)
			lead := c.systems[0]
			if lead.shareable() {
				pair := [2]cache.Config{lead.cfg.L1I, lead.cfg.L1D}
				if pairs[pair] {
					t.Fatalf("two clusters on L1 pair %+v", pair)
				}
				pairs[pair] = true
			}
		}
		if members != len(cfgs) {
			t.Fatalf("clusters hold %d systems, want %d", members, len(cfgs))
		}
		for lo, k := 0, 0; lo < len(trace); k++ {
			hi := min(lo+clusterChunkLen(chunks[k%len(chunks)]), len(trace))
			for _, c := range clusters {
				c.Consume(trace[lo:hi])
			}
			lo = hi
		}
		release()

		var instrs uint64
		for _, a := range trace {
			if a.Kind == memtrace.Ifetch {
				instrs++
			}
		}
		for i, c := range cfgs {
			var want []l2Fetch
			alone := recordFetches(c, &want)
			for _, a := range trace {
				alone.Access(a)
			}
			got, wantRes := grouped[i].Results(instrs), alone.Results(instrs)
			if d := diffFields("Results", reflect.ValueOf(got), reflect.ValueOf(wantRes)); d != nil {
				t.Fatalf("system %d (%+v): grouped results differ: %v", i, c, d)
			}
			if !slices.Equal(fetched[i], want) {
				j := 0
				for j < min(len(fetched[i]), len(want)) && fetched[i][j] == want[j] {
					j++
				}
				t.Fatalf("system %d (%+v): L2 received %d fetches, alone %d; first difference at fetch %d",
					i, c, len(fetched[i]), len(want), j)
			}
			for _, side := range []struct {
				name      string
				got, want *cache.Cache
			}{
				{"L1I", grouped[i].ife.Cache(), alone.ife.Cache()},
				{"L1D", grouped[i].dfe.Cache(), alone.dfe.Cache()},
			} {
				gl, wl := side.got.ResidentLines(), side.want.ResidentLines()
				slices.Sort(gl)
				slices.Sort(wl)
				if !slices.Equal(gl, wl) || side.got.Stats() != side.want.Stats() || !side.got.SameState(side.want) {
					t.Fatalf("system %d %s: %d lines, Stats %+v; alone %d lines, Stats %+v, or other replacement state",
						i, side.name, len(gl), side.got.Stats(), len(wl), side.want.Stats())
				}
			}
		}
	})
}

// TestClustersShareByL1Pair pins the clustering rules: fresh systems of
// one L1 pair form one cluster whatever their helper structures; another
// L1 geometry, a write-back L1, attached counters and a system given
// twice each replay alone. Every cluster of systems that may share, a
// lone one on its own geometry included, takes its chunks through a
// core.Split; the others replay through System.Access.
func TestClustersShareByL1Pair(t *testing.T) {
	big := Config{L1D: cache.Config{Name: "L1D", Size: 8192, LineSize: 16, Assoc: 1}}
	wb := Config{L1D: cache.Config{Name: "L1D", Size: 4096, LineSize: 16, Assoc: 1, WritePolicy: cache.WriteBack}}
	base, victim, big1, big2, wb1 := MustNew(Config{}), MustNew(Config{DAugment: core.Aux{Victim: 4}}), MustNew(big), MustNew(big), MustNew(wb)
	instrumented := MustNew(Config{})
	instrumented.ife.Cache().InstrumentSets(make([]uint64, 256), make([]uint64, 256), make([]uint64, 256))
	counted := MustNew(Config{})
	counted.AttachTelemetry(telemetry.NewRegistry())
	twice := MustNew(Config{})
	lone := MustNew(Config{L1I: cache.Config{Name: "L1I", Size: 2048, LineSize: 16, Assoc: 1}})

	clusters, release := Clusters(base, big1, victim, wb1, big2, instrumented, counted, twice, twice, lone)
	defer release()
	var sizes []int
	var split []bool
	for _, c := range clusters {
		sizes = append(sizes, len(c.systems))
		split = append(split, c.split != nil)
	}
	if want := []int{2, 2, 1, 1, 1, 1, 1, 1}; !slices.Equal(sizes, want) {
		t.Fatalf("cluster sizes %v, want %v", sizes, want)
	}
	if want := []bool{true, true, false, false, false, false, false, true}; !slices.Equal(split, want) {
		t.Errorf("clusters through a Split %v, want %v", split, want)
	}
	if clusters[0].systems[1] != victim || clusters[1].systems[1] != big2 {
		t.Error("clusters hold the wrong systems")
	}
}
