package jouppi

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/classify"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
	"jouppi/sim"
)

var updateExposition = flag.Bool("update", false, "rewrite testdata/exposition.golden")

// TestExpositionGolden pins the Prometheus text of one registry fed by
// every simulator layer that publishes counters: two telemetry-on system
// replays (the §5 improved system on ccom; a miss cache with an L2
// victim cache on liver) and a cachesim-style data-side level
// instrumented under sim_, with a 3C classifier, fed by a lenient din
// decoder that skips two malformed lines. Every name, help string and
// final value must match the golden byte for byte.
func TestExpositionGolden(t *testing.T) {
	reg := telemetry.NewRegistry()

	for _, run := range []struct {
		bench string
		cfg   sim.Config
	}{
		{"ccom", sim.ImprovedSystem()},
		{"liver", sim.Config{D: sim.Augmentation{MissCacheEntries: 4}, L2VictimEntries: 8}},
	} {
		sys, err := sim.NewSystem(run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.AttachTelemetry(reg)
		src, err := sim.Benchmark(run.bench, benchScale)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Replay(context.Background(), src, sys); err != nil {
			t.Fatal(err)
		}
	}

	// The cachesim-style level: a 4KB write-back data cache with a victim
	// cache and stream buffers, its own counters under sim_, a classifier
	// on the plain cache's misses, all published after every chunk.
	var din bytes.Buffer
	tr := workload.GenerateTrace(workload.MustByName("yacc"), benchScale)
	if _, err := tr.WriteDinero(&din); err != nil {
		t.Fatal(err)
	}
	din.WriteString("9 zz\n0 1000\nbogus\n")
	dec := memtrace.NewDineroReader(&din)
	dec.Lenient(0)
	dec.Instrument(reg.Counter("memtrace_records_total", "trace records decoded"),
		reg.Counter("memtrace_dropped_total", "trace records dropped in lenient mode"))

	l1 := cache.MustNew(cache.Config{Name: "L1", Size: 4 << 10, LineSize: 16, Assoc: 1, WritePolicy: cache.WriteBack})
	fe, err := core.NewLevel(l1, core.Aux{Victim: 4, Stream: core.StreamConfig{Ways: 4, Depth: 4}}, nil, core.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	cl := classify.MustNew(4<<10, 16)
	fe.Instrument(reg, "sim_")
	cl.Instrument(reg.Deltas(
		"sim_3c_compulsory_misses_total", "plain-cache misses classified compulsory",
		"sim_3c_capacity_misses_total", "plain-cache misses classified capacity",
		"sim_3c_conflict_misses_total", "plain-cache misses classified conflict"))

	chunk := make([]memtrace.Access, 1000)
	for {
		n := dec.NextChunk(chunk)
		if n == 0 {
			break
		}
		for _, a := range chunk[:n] {
			if a.Kind == memtrace.Ifetch {
				continue
			}
			r := fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
			cl.ObserveMiss(uint64(a.Addr), !r.L1Hit)
		}
		fe.Flush()
		cl.Flush()
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if got := dec.Degradation().Dropped; got != 2 {
		t.Fatalf("decoder dropped %d lines, want 2", got)
	}

	var got strings.Builder
	if err := reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateExposition {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got.String(), want)
	}
}
