package telemetry

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestProgressLine(t *testing.T) {
	reg := NewRegistry()
	acc := reg.Counter("sim_replay_accesses_total", "")
	done := reg.Gauge("experiments_done", "")
	total := reg.Gauge("experiments_total", "")
	total.Set(10)

	var sb strings.Builder
	p := NewProgress(&sb, acc, done, total)
	start := p.start

	// After 2s: 3 of 10 done, 4M accesses → 2 MAcc/s, ETA ~4.7s. The
	// windowed and cumulative rates agree on the first draw.
	done.Set(3)
	acc.Add(4_000_000)
	line := p.line(start.Add(2 * time.Second))
	for _, want := range []string{"3/10 experiments", "ETA", "2.0 MAcc/s (avg 2.0)", "4000000 accesses", "elapsed 2s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line missing %q: %q", want, line)
		}
	}

	// Rate is windowed: another second with no new accesses reads 0 —
	// but the cumulative average still reports the whole run (4M over
	// 3s ≈ 1.3), so a stalled phase is visible without erasing history.
	line = p.line(start.Add(3 * time.Second))
	if !strings.Contains(line, "0.0 MAcc/s (avg 1.3)") {
		t.Errorf("line must show zero windowed rate and the cumulative average after an idle second: %q", line)
	}
}

func TestProgressWithoutTotals(t *testing.T) {
	acc := NewRegistry().Counter("a_total", "")
	p := NewProgress(&strings.Builder{}, acc, nil, nil)
	line := p.line(p.start.Add(time.Second))
	if strings.Contains(line, "experiments") {
		t.Errorf("line shows experiments without gauges: %q", line)
	}
	if !strings.Contains(line, "accesses") {
		t.Errorf("line missing access count: %q", line)
	}
}

func TestProgressStartStopClearsLine(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, nil, nil, nil)
	p.Start(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	out := sb.String()
	if !strings.Contains(out, "\r") {
		t.Error("progress never redrew")
	}
	if !strings.HasSuffix(out, "\r") {
		t.Errorf("Stop must clear the line and park the cursor at column 0: %q", out[len(out)-10:])
	}
	// Stopping twice must not panic or re-clear.
	p.Stop()
}

// TestProgressWidthCountsRunes pins the line width in columns, not
// bytes: each " · " separator is four bytes but three columns. A shorter
// redraw pads out to exactly the previous line's columns, and Stop
// blanks exactly the drawn line's columns.
func TestProgressWidthCountsRunes(t *testing.T) {
	reg := NewRegistry()
	done, total := reg.Gauge("done", ""), reg.Gauge("total", "")
	total.Set(10)
	done.Set(3)
	var sb strings.Builder
	p := NewProgress(&sb, reg.Counter("a_total", ""), done, total)

	p.draw(p.start.Add(2 * time.Second))
	long := strings.TrimPrefix(sb.String(), "\r")
	if strings.Count(long, " · ") < 3 {
		t.Fatalf("want a line with several separators, got %q", long)
	}
	done.Set(10) // finished: the ETA part drops out, so the line shrinks
	sb.Reset()
	p.draw(p.start.Add(3 * time.Second))
	redrawn := strings.TrimPrefix(sb.String(), "\r")
	if got, want := utf8.RuneCountInString(redrawn), utf8.RuneCountInString(long); got != want {
		t.Errorf("shorter redraw covers %d columns, want the previous line's %d: %q", got, want, redrawn)
	}

	line := strings.TrimRight(redrawn, " ")
	sb.Reset()
	p.Stop()
	if want := "\r" + strings.Repeat(" ", utf8.RuneCountInString(line)) + "\r"; sb.String() != want {
		t.Errorf("Stop wrote %d blanks, want the drawn line's %d columns",
			strings.Count(sb.String(), " "), utf8.RuneCountInString(line))
	}
}
