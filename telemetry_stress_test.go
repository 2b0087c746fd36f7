package jouppi

import (
	"io"
	"sync"
	"testing"

	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/internal/workload"
	"jouppi/sim"
)

// TestTelemetryConcurrentScrape pins the concurrency contract of the
// delta-published counters: several replays feeding one shared
// registry while a scraper hammers WritePrometheus and Snapshot must (a)
// be race-clean — this test earns its keep under `go test -race` — and
// (b) lose nothing: once the replays finish, every counter must equal
// exactly N times its sequential single-replay value.
func TestTelemetryConcurrentScrape(t *testing.T) {
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)

	replay := func(reg *telemetry.Registry) {
		sys, err := sim.NewSystem(sim.ImprovedSystem())
		if err != nil {
			t.Error(err)
			return
		}
		sys.AttachTelemetry(reg)
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
		sys.Results() // flushes any pending telemetry deltas
	}

	// Sequential ground truth: one replay into a private registry.
	seqReg := telemetry.NewRegistry()
	replay(seqReg)
	seq := seqReg.Snapshot()
	if seq["sim_l1i_accesses_total"] == 0 {
		t.Fatalf("sequential replay registered nothing: %v", seq)
	}

	const replays = 4
	reg := telemetry.NewRegistry()

	// The scraper loops until the replays are done. Intermediate
	// snapshots may lag (deltas are buffered up to a flush interval) but
	// must never fault or race with the writers.
	stop := make(chan struct{})
	scrapes := 0
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus during replay: %v", err)
				return
			}
			reg.Snapshot()
			scrapes++
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay(reg)
		}()
	}
	wg.Wait()
	close(stop)
	scraperWG.Wait()

	if scrapes == 0 {
		t.Error("scraper goroutine never completed a scrape")
	}
	got := reg.Snapshot()
	if len(got) != len(seq) {
		t.Errorf("concurrent registry has %d metrics, sequential has %d", len(got), len(seq))
	}
	for name, want := range seq {
		if got[name] != want*replays {
			t.Errorf("%s = %v after %d concurrent replays, want %v (%d × %v)",
				name, got[name], replays, want*replays, replays, want)
		}
	}
}
