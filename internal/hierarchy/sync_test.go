package hierarchy

import (
	"math"
	"testing"

	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// syncRecorder is a core.Tap that records the access count of every
// Sync after the one SetTap makes, and asks for no misses.
type syncRecorder struct {
	attached bool
	syncs    []uint64
}

func (r *syncRecorder) Miss(uint64, core.Result, *core.Stats) core.Due { return r.never() }
func (r *syncRecorder) Sync(st *core.Stats) core.Due {
	if r.attached {
		r.syncs = append(r.syncs, st.Accesses)
	}
	r.attached = true
	return r.never()
}
func (r *syncRecorder) never() core.Due {
	return core.Due{Accesses: math.MaxUint64, Misses: math.MaxUint64}
}

// TestPeriodicFlushSyncsMissObserver pins the tap contract at the
// periodic mid-replay flush: with telemetry attached, every
// telFlushEvery-access flush must also sync the levels' taps, so a
// probe's windows keep closing through miss-free stretches of a long
// replay.
func TestPeriodicFlushSyncsMissObserver(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &syncRecorder{}
	sys.IFrontEnd().SetTap(rec)
	sys.AttachTelemetry(telemetry.NewRegistry())

	// Two full flush periods of instruction fetches, fed one Access at a
	// time — no replay-end or Results boundary is ever reached.
	for i := 0; i < 2*telFlushEvery; i++ {
		sys.Access(memtrace.Access{Kind: memtrace.Ifetch, Addr: memtrace.Addr(uint64(i%64) * 16)})
	}

	if len(rec.syncs) < 2 {
		t.Fatalf("got %d mid-replay syncs over two flush periods, want ≥2", len(rec.syncs))
	}
	if got := rec.syncs[0]; got != telFlushEvery {
		t.Errorf("first sync reported %d accesses, want %d", got, telFlushEvery)
	}
	if got := rec.syncs[1]; got != 2*telFlushEvery {
		t.Errorf("second sync reported %d accesses, want %d", got, 2*telFlushEvery)
	}
}

// TestPeriodicFlushWithoutTelemetryStaysLazy pins the complementary
// half of the contract: without a registry attached there is no
// periodic flush, so sync arrives only at explicit boundaries.
func TestPeriodicFlushWithoutTelemetryStaysLazy(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &syncRecorder{}
	sys.IFrontEnd().SetTap(rec)
	for i := 0; i < telFlushEvery+1; i++ {
		sys.Access(memtrace.Access{Kind: memtrace.Ifetch, Addr: memtrace.Addr(uint64(i%64) * 16)})
	}
	if len(rec.syncs) != 0 {
		t.Fatalf("detached system synced %d times mid-replay", len(rec.syncs))
	}
	sys.FlushTelemetry()
	if len(rec.syncs) != 1 || rec.syncs[0] != telFlushEvery+1 {
		t.Fatalf("explicit flush syncs = %v, want one exact count", rec.syncs)
	}
}
