// Package jouppi's root benchmark harness: one testing.B benchmark per
// table and figure of the paper, timing the full regeneration of that
// exhibit (trace generation + all simulator sweeps), plus micro-benchmarks
// of the core simulation loop. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports MAcc/s — millions of simulated memory accesses
// per second across the whole sweep — so throughput is comparable between
// exhibits of different sizes.
package jouppi

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/experiments"
	"jouppi/internal/hierarchy"
	"jouppi/internal/jobqueue"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
	"jouppi/sim"
)

// benchScale keeps each exhibit's regeneration in the hundreds of
// milliseconds; jouppisim uses larger scales for reported results.
const benchScale = 0.05

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	// Share traces across iterations; the sweep work itself is the
	// benchmark body.
	traces := experiments.NewTraceSet(benchScale)
	cfg := experiments.Config{Scale: benchScale, Traces: traces}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(cfg)
		if res == nil || len(res.Text) == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

func BenchmarkTable1_1(b *testing.B) { benchExperiment(b, "table1-1") }
func BenchmarkTable2_1(b *testing.B) { benchExperiment(b, "table2-1") }
func BenchmarkTable2_2(b *testing.B) { benchExperiment(b, "table2-2") }
func BenchmarkFig2_2(b *testing.B)   { benchExperiment(b, "fig2-2") }
func BenchmarkFig3_1(b *testing.B)   { benchExperiment(b, "fig3-1") }
func BenchmarkFig3_3(b *testing.B)   { benchExperiment(b, "fig3-3") }
func BenchmarkFig3_5(b *testing.B)   { benchExperiment(b, "fig3-5") }
func BenchmarkFig3_6(b *testing.B)   { benchExperiment(b, "fig3-6") }
func BenchmarkFig3_7(b *testing.B)   { benchExperiment(b, "fig3-7") }
func BenchmarkFig4_1(b *testing.B)   { benchExperiment(b, "fig4-1") }
func BenchmarkFig4_3(b *testing.B)   { benchExperiment(b, "fig4-3") }
func BenchmarkFig4_5(b *testing.B)   { benchExperiment(b, "fig4-5") }
func BenchmarkFig4_6(b *testing.B)   { benchExperiment(b, "fig4-6") }
func BenchmarkFig4_7(b *testing.B)   { benchExperiment(b, "fig4-7") }
func BenchmarkFig5_1(b *testing.B)   { benchExperiment(b, "fig5-1") }
func BenchmarkOverlap(b *testing.B)  { benchExperiment(b, "overlap") }

func BenchmarkAblationQuasi(b *testing.B)       { benchExperiment(b, "ablation-quasi") }
func BenchmarkAblationStride(b *testing.B)      { benchExperiment(b, "ablation-stride") }
func BenchmarkAblationL2Victim(b *testing.B)    { benchExperiment(b, "ablation-l2victim") }
func BenchmarkAblationMissCmp(b *testing.B)     { benchExperiment(b, "ablation-misscmp") }
func BenchmarkAblationReplacement(b *testing.B) { benchExperiment(b, "ablation-replacement") }
func BenchmarkAblationAssoc(b *testing.B)       { benchExperiment(b, "ablation-assoc") }
func BenchmarkAblationPrefetchCmp(b *testing.B) { benchExperiment(b, "ablation-prefetchcmp") }
func BenchmarkAblationDepth(b *testing.B)       { benchExperiment(b, "ablation-depth") }
func BenchmarkAblationWritePolicy(b *testing.B) { benchExperiment(b, "ablation-writepolicy") }
func BenchmarkAblationMultiprog(b *testing.B)   { benchExperiment(b, "ablation-multiprog") }
func BenchmarkAblationInclusion(b *testing.B)   { benchExperiment(b, "ablation-inclusion") }
func BenchmarkAblationLatency(b *testing.B)     { benchExperiment(b, "ablation-latency") }
func BenchmarkAblationL2Stream(b *testing.B)    { benchExperiment(b, "ablation-l2stream") }
func BenchmarkAblationBandwidth(b *testing.B)   { benchExperiment(b, "ablation-bandwidth") }
func BenchmarkAblationWriteBuffer(b *testing.B) { benchExperiment(b, "ablation-writebuffer") }

// --- micro-benchmarks of the simulation substrate ---

// BenchmarkTraceGeneration measures raw workload generation speed.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			var accesses uint64
			for i := 0; i < b.N; i++ {
				tr := workload.GenerateTrace(workload.MustByName(name), benchScale)
				accesses += uint64(tr.Len())
			}
			b.ReportMetric(float64(accesses)/1e6/b.Elapsed().Seconds(), "MAcc/s")
		})
	}
}

// BenchmarkBaselineReplay measures the plain direct-mapped simulation loop.
func BenchmarkBaselineReplay(b *testing.B) {
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		l1 := cache.MustNew(cache.Config{Size: 4096, LineSize: 16, Assoc: 1})
		tr.Each(func(a memtrace.Access) {
			l1.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		})
		total += uint64(tr.Len())
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
}

// BenchmarkVictimCacheReplay measures the victim-cache front-end.
func BenchmarkVictimCacheReplay(b *testing.B) {
	tr := workload.GenerateTrace(workload.MustByName("met"), benchScale)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		fe := core.NewVictimCache(cache.MustNew(cache.Config{Size: 4096, LineSize: 16, Assoc: 1}),
			4, nil, core.DefaultTiming())
		tr.Each(func(a memtrace.Access) {
			if a.Kind.IsData() {
				fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
			}
		})
		total += tr.DataRefs()
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
}

// BenchmarkStreamBufferReplay measures the 4-way stream-buffer front-end.
func BenchmarkStreamBufferReplay(b *testing.B) {
	tr := workload.GenerateTrace(workload.MustByName("liver"), benchScale)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		fe := core.NewStreamBuffer(cache.MustNew(cache.Config{Size: 4096, LineSize: 16, Assoc: 1}),
			core.StreamConfig{Ways: 4, Depth: 4}, nil, core.DefaultTiming())
		tr.Each(func(a memtrace.Access) {
			if a.Kind.IsData() {
				fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
			}
		})
		total += tr.DataRefs()
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
}

// BenchmarkFullSystemReplay measures the complete two-level improved
// system end to end through the public API.
func BenchmarkFullSystemReplay(b *testing.B) {
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		sys, err := sim.NewSystem(sim.ImprovedSystem())
		if err != nil {
			b.Fatal(err)
		}
		tr.Each(func(a memtrace.Access) {
			switch a.Kind {
			case memtrace.Ifetch:
				sys.Ifetch(uint64(a.Addr))
			case memtrace.Load:
				sys.Load(uint64(a.Addr))
			case memtrace.Store:
				sys.Store(uint64(a.Addr))
			}
		})
		total += uint64(tr.Len())
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
}

// sweepShapes are the eight data-cache configurations of cachesim's
// paper sweep (the cli-sweep workload): miss caches, victim caches and
// stream buffers on the 4KB direct-mapped cache, and a 4-way cache.
var sweepShapes = []struct {
	assoc int
	aux   core.Aux
}{
	{1, core.Aux{}},
	{1, core.Aux{MissCache: 4}},
	{1, core.Aux{Victim: 1}},
	{1, core.Aux{Victim: 4}},
	{1, core.Aux{Stream: core.StreamConfig{Ways: 1, Depth: 4}}},
	{1, core.Aux{Stream: core.StreamConfig{Ways: 4, Depth: 4}}},
	{1, core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}}},
	{4, core.Aux{}},
}

// sweepGroups builds the sweep's levels and groups them: with share set,
// the configurations of equal caches share one, as cachesim -fanout
// builds them; otherwise each has its own.
func sweepGroups(tb testing.TB, share bool) []*core.Group {
	l1s := map[int]*cache.Cache{}
	var fes []*core.Level
	for _, s := range sweepShapes {
		l1 := l1s[s.assoc]
		if l1 == nil {
			l1 = cache.MustNew(cache.Config{Name: "L1", Size: 4096, LineSize: 16, Assoc: s.assoc})
			if share {
				l1s[s.assoc] = l1
			}
		}
		fe, err := core.NewLevel(l1, s.aux, nil, core.DefaultTiming())
		if err != nil {
			tb.Fatal(err)
		}
		fes = append(fes, fe)
	}
	groups, err := core.Groups(fes...)
	if err != nil {
		tb.Fatal(err)
	}
	return groups
}

// benchChunk is the fan-out engine's chunk length: the references a
// consumer takes per call.
const benchChunk = 4096

// ccomData returns the data references of ccom at benchScale: the
// stream cachesim -side data replays.
func ccomData() []memtrace.Access {
	var data []memtrace.Access
	workload.GenerateTrace(workload.MustByName("ccom"), benchScale).Each(func(a memtrace.Access) {
		if a.Kind.IsData() {
			data = append(data, a)
		}
	})
	return data
}

// replaySweep replays data through every group of the sweep, one group
// after another, in the engine's chunks, as cachesim -fanout does on
// one CPU.
func replaySweep(groups []*core.Group, data []memtrace.Access) {
	for _, g := range groups {
		for lo := 0; lo < len(data); lo += benchChunk {
			g.AccessChunk(data[lo:min(lo+benchChunk, len(data))], nil)
		}
	}
}

// BenchmarkSweepReplay replays the data references of one in-memory
// trace through the sweep's eight configurations, as cachesim -fanout
// does on one CPU: each group takes the whole trace in turn, chunk by
// chunk. The grouped arm probes each distinct cache once per access;
// one-per-config gives every configuration its own cache, so each
// probes and fills its own. Both run the same code. ns/access is per
// trace reference, all eight configurations together.
func BenchmarkSweepReplay(b *testing.B) {
	data := ccomData()
	for _, arm := range []struct {
		name  string
		share bool
	}{{"grouped", true}, {"one-per-config", false}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replaySweep(sweepGroups(b, arm.share), data)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data)), "ns/access")
		})
	}
}

// BenchmarkCacheProbe is the tag-store rung: the data references of
// ccom through the sweep's 4KB direct-mapped and 4-way L1s alone, with
// no level behind them. The per-reference arms call cache.Access (Probe,
// then Fill on a miss) once per reference; the chunk arms hand the
// engine's chunks to cache.AccessChunk. ns/access is per reference.
func BenchmarkCacheProbe(b *testing.B) {
	data := ccomData()
	for _, assoc := range []int{1, 4} {
		for _, arm := range []struct {
			name    string
			chunked bool
		}{{"per-reference", false}, {"chunk", true}} {
			b.Run(fmt.Sprintf("assoc%d/%s", assoc, arm.name), func(b *testing.B) {
				var misses []cache.Miss
				for i := 0; i < b.N; i++ {
					c := cache.MustNew(cache.Config{Name: "L1", Size: 4096, LineSize: 16, Assoc: assoc})
					if !arm.chunked {
						for _, a := range data {
							c.Access(uint64(a.Addr), a.Kind == memtrace.Store)
						}
						continue
					}
					for lo := 0; lo < len(data); lo += benchChunk {
						misses = c.AccessChunk(data[lo:min(lo+benchChunk, len(data))], misses[:0])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data)), "ns/access")
			})
		}
	}
}

// BenchmarkClusterConsume is the cluster rung: a svc-mixed job's four
// systems (svcMixedSpecs), which share one L1 pair, fed every reference
// of ccom a chunk at a time, as the engine hands a consumer its chunks at
// GOMAXPROCS 1. The probe arm runs only the two-cache loop
// (cache.AccessSides) over fresh paper L1s; the consume arm runs the
// whole hierarchy.Cluster.Consume: that loop, then each system resolving
// the chunk's misses through its helper structures and L2. ns/access is
// per trace reference, the four systems together.
func BenchmarkClusterConsume(b *testing.B) {
	var trace []memtrace.Access
	workload.GenerateTrace(workload.MustByName("ccom"), benchScale).Each(func(a memtrace.Access) {
		trace = append(trace, a)
	})
	cfgs := svcMixedConfigs(b)
	chunks := func(consume func([]memtrace.Access)) {
		for lo := 0; lo < len(trace); lo += benchChunk {
			consume(trace[lo:min(lo+benchChunk, len(trace))])
		}
	}
	b.Run("probe", func(b *testing.B) {
		paper := hierarchy.DefaultConfig()
		var misses []cache.SideMiss
		for i := 0; i < b.N; i++ {
			l1i, l1d := cache.MustNew(paper.L1I), cache.MustNew(paper.L1D)
			chunks(func(c []memtrace.Access) { misses, _ = cache.AccessSides(l1i, l1d, c, misses[:0]) })
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/access")
	})
	b.Run("consume", func(b *testing.B) {
		systems := make([]*hierarchy.System, len(cfgs))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j, c := range cfgs {
				hc, err := c.Config.Hierarchy()
				if err != nil {
					b.Fatal(err)
				}
				systems[j] = hierarchy.MustNew(hc)
			}
			clusters, release := hierarchy.Clusters(systems...)
			if len(clusters) != 1 {
				b.Fatalf("%d clusters, want 1", len(clusters))
			}
			b.StartTimer()
			chunks(clusters[0].Consume)
			release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/access")
	})
}

// BenchmarkUploadSubmit times one POST /jobs admission of a 100k-record
// din upload (about 1.2 MB of base64) through the cachesimd handler:
// reading the body, decoding the request and its trace, and the queue's
// admission with its cache key. The runner does nothing, so no job is
// simulated. MB/s is request-body bytes admitted per second.
func BenchmarkUploadSubmit(b *testing.B) {
	const scale = 0.1
	tr := workload.GenerateTrace(workload.MustByName("ccom"), scale)
	if tr.Len() < 100_000 {
		b.Fatalf("ccom at scale %v has %d records, want 100000", scale, tr.Len())
	}
	var din bytes.Buffer
	if _, err := tr.Slice(0, 100_000).WriteDinero(&din); err != nil {
		b.Fatal(err)
	}
	body := fmt.Appendf(nil, `{"trace_format":"din","configs":"sys=baseline;sys=improved;victim=4;misscache=4;ways=4","trace":%q}`,
		base64.StdEncoding.EncodeToString(din.Bytes()))

	q := jobqueue.NewQueue(jobqueue.Options{
		Version: "bench",
		MaxJobs: 4,
		Runner: func(ctx context.Context, spec *jobqueue.Spec, version string) (*jobqueue.ResultBody, error) {
			return &jobqueue.ResultBody{Version: version, TraceDigest: spec.TraceDigest()}, nil
		},
	})
	defer q.Drain(time.Second)
	srv := jobqueue.NewServer(q, telemetry.NewRegistry())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			b.Fatalf("POST /jobs = %d: %s", w.Code, w.Body)
		}
	}
}

// svcMixedSpecs are the four systems a svc-mixed benchmark job replays.
// They share the paper's L1s, so sim.Replay runs them as one consumer.
const svcMixedSpecs = "sys=baseline;sys=improved;victim=4;ways=4"

// svcMixedConfigs parses svcMixedSpecs.
func svcMixedConfigs(tb testing.TB) []sim.LabeledConfig {
	cfgs, err := sim.ParseConfigs(svcMixedSpecs, sim.BaselineSystem())
	if err != nil {
		tb.Fatal(err)
	}
	return cfgs
}

// generatedReplay is the shape of a fresh cachesimd benchmark job: ccom
// at scale 0.05 generated once through one system per configuration,
// in one sim.Replay under a cancellable context (a job's), so the
// workload is pushed in chunks through the fan-out engine. It returns
// the references replayed.
func generatedReplay(tb testing.TB, ctx context.Context, cfgs []sim.LabeledConfig) uint64 {
	src, err := sim.Benchmark("ccom", benchScale)
	if err != nil {
		tb.Fatal(err)
	}
	systems := make([]*sim.System, len(cfgs))
	for j, c := range cfgs {
		if systems[j], err = sim.NewSystem(c.Config); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sim.Replay(ctx, src, systems...); err != nil {
		tb.Fatal(err)
	}
	r := systems[0].Results()
	return r.I.Accesses + r.D.Accesses
}

// BenchmarkGeneratedReplay times a svc-mixed fresh job's replay (see
// generatedReplay). Run with -benchmem: steady-state chunks reuse their
// buffers, so B/op is the systems and one chunk.
func BenchmarkGeneratedReplay(b *testing.B) {
	cfgs := svcMixedConfigs(b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	var total uint64
	for i := 0; i < b.N; i++ {
		total += generatedReplay(b, ctx, cfgs)
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
}

// --- trace decode ---

// benchDecode times decoding a file of the ccom workload in format f, as
// a trace tool opens one: an os.File under memtrace.NewDecoder, pulled
// dry through NextChunk. It reports ns per record; B/op is the decoder's
// buffers, since records decode without allocating.
func benchDecode(b *testing.B, f memtrace.Format) {
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)
	path := filepath.Join(b.TempDir(), "trace")
	out, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if f == memtrace.Din {
		_, err = tr.WriteDinero(out)
	} else {
		_, err = tr.WriteTo(out)
	}
	if err := errors.Join(err, out.Close()); err != nil {
		b.Fatal(err)
	}
	buf := make([]memtrace.Access, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := memtrace.NewDecoder(in, f)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for m := dec.NextChunk(buf); m > 0; m = dec.NextChunk(buf) {
			n += m
		}
		in.Close()
		if dec.Err() != nil || n != tr.Len() {
			b.Fatalf("decoded %d of %d records: %v", n, tr.Len(), dec.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/rec")
}

// BenchmarkDinDecode times din text decode from a file.
func BenchmarkDinDecode(b *testing.B) { benchDecode(b, memtrace.Din) }

// BenchmarkJTRDecode times JTR1 binary decode from a file.
func BenchmarkJTRDecode(b *testing.B) { benchDecode(b, memtrace.JTR) }

// --- streaming vs materialized replay ---

// streamScale sizes the streaming comparison: at scale 4 ccom is ≈5M
// accesses, so the materialized trace (8 bytes per record plus growth
// copies) dominates the heap, while the streaming path replays the same
// workload in O(1) memory. Run with -benchmem to see the gap.
const streamScale = 4

// BenchmarkStreamedRunBenchmark measures the streaming replay path: the
// generator emits directly into the memory system, no trace is built.
func BenchmarkStreamedRunBenchmark(b *testing.B) {
	var total uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunBenchmark("ccom", streamScale, sim.BaselineSystem())
		if err != nil {
			b.Fatal(err)
		}
		total += res.I.Accesses + res.D.Accesses
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
}

// BenchmarkMaterializedRunBenchmark measures the pre-streaming shape of
// the same replay: generate the whole trace, then walk it.
func BenchmarkMaterializedRunBenchmark(b *testing.B) {
	var total uint64
	for i := 0; i < b.N; i++ {
		tr := workload.GenerateTrace(workload.MustByName("ccom"), streamScale)
		sys, err := sim.NewSystem(sim.BaselineSystem())
		if err != nil {
			b.Fatal(err)
		}
		tr.Each(func(a memtrace.Access) {
			switch a.Kind {
			case memtrace.Ifetch:
				sys.Ifetch(uint64(a.Addr))
			case memtrace.Load:
				sys.Load(uint64(a.Addr))
			case memtrace.Store:
				sys.Store(uint64(a.Addr))
			}
		})
		total += uint64(tr.Len())
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
}

// TestStreamingReplayAllocReduction pins the point of the streaming
// engine: replaying a benchmark at scale 4 must allocate at least 10×
// less than materializing its trace first.
func TestStreamingReplayAllocReduction(t *testing.T) {
	measure := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var streamedRes sim.Results
	streamed := measure(func() {
		var err error
		streamedRes, err = sim.RunBenchmark("ccom", streamScale, sim.BaselineSystem())
		if err != nil {
			t.Fatal(err)
		}
	})

	var traceLen int
	materialized := measure(func() {
		tr := workload.GenerateTrace(workload.MustByName("ccom"), streamScale)
		sys, err := sim.NewSystem(sim.BaselineSystem())
		if err != nil {
			t.Fatal(err)
		}
		tr.Each(func(a memtrace.Access) {
			switch a.Kind {
			case memtrace.Ifetch:
				sys.Ifetch(uint64(a.Addr))
			case memtrace.Load:
				sys.Load(uint64(a.Addr))
			case memtrace.Store:
				sys.Store(uint64(a.Addr))
			}
		})
		traceLen = tr.Len()
	})

	if got := streamedRes.I.Accesses + streamedRes.D.Accesses; got != uint64(traceLen) {
		t.Fatalf("paths replayed different work: streamed %d accesses, materialized %d", got, traceLen)
	}
	t.Logf("allocated: streamed %d KB, materialized %d KB (%d accesses)",
		streamed/1024, materialized/1024, traceLen)
	if materialized < 10*streamed {
		t.Errorf("streaming saved less than 10×: streamed %d B, materialized %d B",
			streamed, materialized)
	}
}
