package jouppi

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
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
// exactly N times its sequential single-replay value. Each concurrent
// replay stops half-way until the scraper has run a whole scrape after
// that point, so scrapes overlap partly published counters however the
// host schedules the goroutines: a replay takes a few milliseconds, and
// on a loaded host it could otherwise finish before the scraper first ran.
func TestTelemetryConcurrentScrape(t *testing.T) {
	tr := workload.GenerateTrace(workload.MustByName("ccom"), benchScale)

	// replay runs tr through a fresh system feeding reg, calling midway
	// (when not nil) after half the records.
	replay := func(reg *telemetry.Registry, midway func()) {
		sys, err := sim.NewSystem(sim.ImprovedSystem())
		if err != nil {
			t.Error(err)
			return
		}
		sys.AttachTelemetry(reg)
		n := 0
		tr.Each(func(a memtrace.Access) {
			if n++; n == tr.Len()/2 && midway != nil {
				midway()
			}
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
	replay(seqReg, nil)
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
	scraperDone := make(chan struct{})
	var scrapes atomic.Int64
	go func() {
		defer close(scraperDone)
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
			scrapes.Add(1)
		}
	}()

	// awaitScrape returns once a scrape that began after the call has
	// finished (two completions: the first may have begun before), or
	// once the scraper has given up on an error.
	awaitScrape := func() {
		for want := scrapes.Load() + 2; scrapes.Load() < want; {
			select {
			case <-scraperDone:
				return
			default:
				runtime.Gosched()
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay(reg, awaitScrape)
		}()
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	if scrapes.Load() == 0 {
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
