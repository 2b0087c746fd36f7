package jouppi

// The fan-out engine's headline number: decoding an on-disk trace once and
// broadcasting it to N cache configurations versus re-decoding it for every
// configuration. Text-format trace decode dominates per-configuration
// simulation cost, so the single-pass replay amortizes the expensive part
// across the whole sweep. TestFanoutDecodeOnceEquivalence pins that the
// two paths produce bit-identical results; TestWriteBenchFanoutJSON (env
// gated, wired as `make bench-json`) records the measured speedup in
// BENCH_fanout.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/workload"
)

// fanoutBenchConfigs returns the eight-system sweep the acceptance
// criterion asks for: the paper baseline, miss and victim caches at two
// sizes, instruction and data stream buffers, and the full improved
// system.
func fanoutBenchConfigs() []hierarchy.Config {
	stream1 := core.StreamConfig{Ways: 1, Depth: 4}
	stream4 := core.StreamConfig{Ways: 4, Depth: 4}
	return []hierarchy.Config{
		{}, // paper baseline
		{DAugment: core.Aux{MissCache: 2}},
		{DAugment: core.Aux{MissCache: 4}},
		{DAugment: core.Aux{Victim: 2}},
		{DAugment: core.Aux{Victim: 4}},
		{IAugment: core.Aux{Stream: stream1}},
		{DAugment: core.Aux{Stream: stream4}},
		{
			IAugment: core.Aux{Stream: stream1},
			DAugment: core.Aux{Victim: 4, Stream: stream4},
		},
	}
}

// fanoutBenchTrace serializes the ccom workload to dinero text — the
// captured-trace-file shape the decode-once replay is built for — and
// returns the bytes plus the record count.
func fanoutBenchTrace(tb testing.TB) ([]byte, int) {
	tb.Helper()
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)
	var buf bytes.Buffer
	if _, err := tr.WriteDinero(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), tr.Len()
}

// replaySequentialDinero is the per-configuration arm: each system decodes
// the trace text itself, exactly as N independent cachesim invocations
// would.
func replaySequentialDinero(tb testing.TB, din []byte, cfgs []hierarchy.Config) []hierarchy.Results {
	tb.Helper()
	out := make([]hierarchy.Results, len(cfgs))
	for i, cfg := range cfgs {
		counting := memtrace.NewCountingSource(memtrace.NewDineroReader(bytes.NewReader(din)))
		sys := hierarchy.MustNew(cfg)
		memtrace.Each(counting, sys.Access)
		out[i] = sys.Results(counting.Instructions())
	}
	return out
}

// replayFanoutDinero is the single-pass arm: one decode feeds every system
// through the fan-out engine.
func replayFanoutDinero(tb testing.TB, din []byte, cfgs []hierarchy.Config) []hierarchy.Results {
	tb.Helper()
	systems := make([]*hierarchy.System, len(cfgs))
	consumers := make([]fanout.Consumer, len(cfgs))
	for i, cfg := range cfgs {
		systems[i] = hierarchy.MustNew(cfg)
		consumers[i] = fanout.Sink(systems[i])
	}
	counting := memtrace.NewCountingSource(memtrace.NewDineroReader(bytes.NewReader(din)))
	if err := fanout.Replay(context.Background(), counting, consumers...); err != nil {
		tb.Fatal(err)
	}
	out := make([]hierarchy.Results, len(cfgs))
	for i, sys := range systems {
		out[i] = sys.Results(counting.Instructions())
	}
	return out
}

// TestFanoutDecodeOnceEquivalence pins the engine's core contract at the
// benchmark's own scale and configuration sweep: the single-pass replay
// must be bit-identical to decoding the trace once per configuration.
func TestFanoutDecodeOnceEquivalence(t *testing.T) {
	din, _ := fanoutBenchTrace(t)
	cfgs := fanoutBenchConfigs()
	want := replaySequentialDinero(t, din, cfgs)
	got := replayFanoutDinero(t, din, cfgs)
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("config %d diverged:\nfanout:     %+v\nsequential: %+v", i, got[i], want[i])
		}
	}
}

// BenchmarkFanoutReplay compares the two arms interactively; the JSON
// artifact below is the recorded measurement.
func BenchmarkFanoutReplay(b *testing.B) {
	din, records := fanoutBenchTrace(b)
	cfgs := fanoutBenchConfigs()
	arm := func(replay func(testing.TB, []byte, []hierarchy.Config) []hierarchy.Results) func(*testing.B) {
		return func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				replay(b, din, cfgs)
				total += uint64(records) * uint64(len(cfgs))
			}
			b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MAcc/s")
		}
	}
	b.Run("sequential", arm(replaySequentialDinero))
	b.Run("fanout", arm(replayFanoutDinero))
}

// TestWriteBenchFanoutJSON measures both arms with testing.Benchmark and
// writes the comparison — including the decode-once speedup — to the file
// named by the BENCH_FANOUT_JSON environment variable (wired up as
// `make bench-json`). Without the variable the test is skipped. Both arms
// are measured twice: at the host's GOMAXPROCS, where the engine
// broadcasts to a goroutine per configuration, and at GOMAXPROCS 1, where
// it runs every configuration inline and the speedup does not depend on
// the host's core count.
func TestWriteBenchFanoutJSON(t *testing.T) {
	out := os.Getenv("BENCH_FANOUT_JSON")
	if out == "" {
		t.Skip("set BENCH_FANOUT_JSON=<path> to write the fan-out benchmark comparison")
	}
	din, records := fanoutBenchTrace(t)
	cfgs := fanoutBenchConfigs()
	type entry struct {
		NsPerOp     int64 `json:"ns_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
		N           int   `json:"n"`
	}
	measure := func(replay func(testing.TB, []byte, []hierarchy.Config) []hierarchy.Results) entry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(b, din, cfgs)
			}
		})
		return entry{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
	}
	// measureAt measures both arms at procs Ps and returns them with the
	// speedup of the fan-out arm over the per-configuration one.
	measureAt := func(procs int) (seq, fan entry, speedup float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		seq, fan = measure(replaySequentialDinero), measure(replayFanoutDinero)
		if fan.NsPerOp > 0 {
			speedup = float64(seq.NsPerOp) / float64(fan.NsPerOp)
		}
		return seq, fan, speedup
	}

	type report struct {
		Benchmark      string    `json:"benchmark"`
		Host           benchHost `json:"host"`
		Workload       string    `json:"workload"`
		Scale          float64   `json:"scale"`
		Format         string    `json:"trace_format"`
		Records        int       `json:"trace_records"`
		Configs        int       `json:"configurations"`
		Sequential     entry     `json:"decode_per_config"`
		Fanout         entry     `json:"decode_once_fanout"`
		Speedup        float64   `json:"speedup"`
		Sequential1CPU entry     `json:"decode_per_config_1cpu"`
		Fanout1CPU     entry     `json:"decode_once_fanout_1cpu"`
		Speedup1CPU    float64   `json:"speedup_1cpu"`
	}
	r := report{
		Benchmark: "FanoutReplay",
		Host:      currentHost(),
		Workload:  "ccom",
		Scale:     benchScale,
		Format:    "din",
		Records:   records,
		Configs:   len(cfgs),
	}
	r.Sequential, r.Fanout, r.Speedup = measureAt(r.Host.GOMAXPROCS)
	r.Sequential1CPU, r.Fanout1CPU, r.Speedup1CPU = measureAt(1)
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: sequential %d ns/op, fanout %d ns/op, speedup %.2fx at GOMAXPROCS %d, %.2fx at 1, over %d configs",
		out, r.Sequential.NsPerOp, r.Fanout.NsPerOp, r.Speedup, r.Host.GOMAXPROCS, r.Speedup1CPU, r.Configs)
}
