package core

import (
	"testing"

	"jouppi/internal/telemetry"
)

// TestCountersMatchStats replays a stream with every kind of hit through
// a victim-cache plus stream-buffer level instrumented under lvl_,
// flushing mid-replay and at the end, and checks the registry against
// the level's Stats. Re-instrumenting under late_ halfway through closes
// the lvl_ set at exactly that point, so lvl_ holds the first half and
// late_ the rest; the cache's own set, registered under the same name
// both times, holds the whole run.
func TestCountersMatchStats(t *testing.T) {
	l, err := NewLevel(newL1(1024), Aux{Victim: 4, Stream: StreamConfig{Ways: 2}}, nil, Timing{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	l.Instrument(reg, "lvl_")
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
			l.Flush()
		}
		if i == 10000 {
			half = l.Stats()
			l.Instrument(reg, "late_")
		}
	}
	l.Flush()
	st := l.Stats()
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
		if got := snap["lvl_"+f.name]; got != float64(f.old) {
			t.Errorf("lvl_%s = %v, want %d up to the re-instrumentation", f.name, got, f.old)
		}
		if got := snap["late_"+f.name]; got != float64(f.stat-f.old) {
			t.Errorf("late_%s = %v, want %d since the re-instrumentation", f.name, got, f.stat-f.old)
		}
	}
	cs := l.Cache().Stats()
	for name, want := range map[string]uint64{
		"hits": cs.Hits, "misses": cs.Misses, "fills": cs.Fills,
		"evictions": cs.Evictions, "writebacks": cs.Writebacks,
	} {
		if got := snap["sim_cache_L1_"+name+"_total"]; got != float64(want) {
			t.Errorf("sim_cache_L1_%s_total = %v, cache Stats say %d", name, got, want)
		}
	}
	if cs.Hits == 0 || cs.Evictions == 0 {
		t.Fatalf("cache exercised too little: %+v", cs)
	}
}
