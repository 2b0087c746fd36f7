package core

import (
	"testing"

	"jouppi/internal/telemetry"
)

// TestCountersMatchStats replays a stream with every kind of hit through
// a victim-cache plus stream-buffer level, publishing mid-replay and at
// the end, and checks the registry against the level's Stats. A second
// counter set rebased mid-replay counts only what followed.
func TestCountersMatchStats(t *testing.T) {
	l, err := NewLevel(newL1(1024), Aux{Victim: 4, Stream: StreamConfig{Ways: 2}}, nil, Timing{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c := NewCounters(reg, "lvl_")
	late := NewCounters(reg, "late_")
	var half Stats
	x := uint64(1)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var addr uint64
		switch x % 3 {
		case 0: // a sequential walk, for the stream buffers
			addr = uint64(i) * 16
		case 1: // two lines that conflict in the 1KB cache, for the victim cache
			addr = (x >> 8 & 1) << 20
		default:
			addr = x % (64 << 10)
		}
		l.Access(addr, x&8 != 0)
		if i%4096 == 0 {
			c.Publish(l.Stats())
		}
		if i == 10000 {
			half = l.Stats()
			late.Rebase(half)
		}
	}
	st := l.Stats()
	c.Publish(st)
	late.Publish(st)
	if st.VictimHits == 0 || st.StreamHits == 0 {
		t.Fatalf("stream exercised too little: %+v", st)
	}
	snap := reg.Snapshot()
	for _, f := range []struct {
		name      string
		stat, old uint64
	}{
		{"accesses_total", st.Accesses, half.Accesses},
		{"l1_hits_total", st.L1Hits, half.L1Hits},
		{"aux_hits_total", st.AuxHits, half.AuxHits},
		{"miss_cache_hits_total", st.MissCacheHits, half.MissCacheHits},
		{"victim_hits_total", st.VictimHits, half.VictimHits},
		{"stream_hits_total", st.StreamHits, half.StreamHits},
		{"full_misses_total", st.FullMisses(), half.FullMisses()},
	} {
		if got := snap["lvl_"+f.name]; got != float64(f.stat) {
			t.Errorf("lvl_%s = %v, Stats say %d", f.name, got, f.stat)
		}
		if got := snap["late_"+f.name]; got != float64(f.stat-f.old) {
			t.Errorf("late_%s = %v, want %d since the rebase", f.name, got, f.stat-f.old)
		}
	}
}
