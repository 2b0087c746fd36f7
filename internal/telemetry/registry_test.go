package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// mustPanic runs fn and returns the recovered panic message, failing the
// test if fn returns normally.
func mustPanic(t *testing.T, what string, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if v := recover(); v != nil {
				msg = v.(string)
			}
		}()
		fn()
		t.Fatalf("%s: expected panic, got none", what)
	}()
	return msg
}

// TestRegistryHelpMismatchPanics is the regression test for the silent
// name-collision bug: registering an existing name with a different,
// non-empty help string used to return the first registration without a
// word. It must now panic, naming both help strings.
func TestRegistryHelpMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim_hits_total", "L1 hits")
	msg := mustPanic(t, "help mismatch", func() {
		reg.Counter("sim_hits_total", "L2 hits")
	})
	if !strings.Contains(msg, "L1 hits") || !strings.Contains(msg, "L2 hits") {
		t.Errorf("panic message should name both helps, got %q", msg)
	}
}

// TestRegistryEmptyHelpDefers pins the escape hatch: an empty help string
// matches any registered help (lookups don't need to repeat the prose),
// and a later non-empty help fills in an initially empty one.
func TestRegistryEmptyHelpDefers(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a_total", "the a counter")
	if reg.Counter("a_total", "") != c {
		t.Error("empty-help lookup must return the registered counter")
	}
	reg.Counter("b_total", "")
	reg.Counter("b_total", "the b counter").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# HELP b_total the b counter") {
		t.Errorf("late help should backfill an empty registration:\n%s", sb.String())
	}
}

// TestRegistryTypeMismatchPanics: one name, two metric types. The old
// registry kept both in separate maps and rendered whichever the type
// switch hit first.
func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queue_depth", "")
	msg := mustPanic(t, "type mismatch", func() {
		reg.Gauge("queue_depth", "")
	})
	if !strings.Contains(msg, "counter") || !strings.Contains(msg, "gauge") {
		t.Errorf("panic message should name both types, got %q", msg)
	}
}

// TestRegistryHistogramBoundsMismatchPanics is the regression test for
// histogram bounds: re-registering with different buckets used to be
// silently ignored. Matching bounds in a different order stay fine.
func TestRegistryHistogramBoundsMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("dur_seconds", "", []float64{1, 0.1, 10})
	if reg.Histogram("dur_seconds", "", []float64{10, 1, 0.1}) != h {
		t.Error("same bounds in a different order must be the same histogram")
	}
	mustPanic(t, "bounds mismatch", func() {
		reg.Histogram("dur_seconds", "", []float64{1, 2, 3})
	})
}

// TestDeltasPublish pins the delta-publication contract: Publish adds
// each total's growth since the last Publish exactly once, Rebase marks
// totals published without emitting anything, and a nil Deltas (what a
// nil registry hands out) ignores every call.
func TestDeltasPublish(t *testing.T) {
	reg := NewRegistry()
	d := reg.Deltas("a_total", "first", "b_total", "second")
	a, b := reg.Counter("a_total", ""), reg.Counter("b_total", "")
	d.Publish(3, 10)
	d.Publish(3, 10) // no growth: nothing more to add
	d.Publish(5, 12)
	if a.Value() != 5 || b.Value() != 12 {
		t.Errorf("after publishing totals (5, 12): a=%d b=%d", a.Value(), b.Value())
	}
	d.Rebase(100, 200)
	d.Publish(101, 200)
	if a.Value() != 6 || b.Value() != 12 {
		t.Errorf("after rebase to (100, 200) and publishing (101, 200): a=%d b=%d, want 6, 12",
			a.Value(), b.Value())
	}
	d.Rebase(0, 0) // a reset of the totals
	d.Publish(2, 1)
	if a.Value() != 8 || b.Value() != 13 {
		t.Errorf("after a reset and publishing (2, 1): a=%d b=%d, want 8, 13", a.Value(), b.Value())
	}

	var off *Registry
	nd := off.Deltas("c_total", "")
	if nd != nil {
		t.Fatal("a nil registry must hand out a nil Deltas")
	}
	nd.Publish(7) // must not panic
	nd.Rebase(7)
	mustPanic(t, "pairs", func() { reg.Deltas("odd_total") })
}

// TestCounterConcurrentSum hammers one counter from many goroutines
// while a reader loads it, pinning that concurrent writers lose no
// updates and Value converges to the exact total.
func TestCounterConcurrentSum(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	const writers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				c.Value() // concurrent aggregation must be race-free
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if got := c.Value(); got != writers*per {
		t.Errorf("counter = %d, want %d", got, writers*per)
	}
}
