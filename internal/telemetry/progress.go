package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Progress renders a live single-line status to a terminal-ish writer
// (normally stderr), driven by the same counters the /metrics endpoint
// serves: replay throughput in accesses/sec (instantaneous over the last
// redraw window, with the cumulative average alongside), experiments
// done/total, and
// an ETA extrapolated from the completion rate. The line is redrawn in
// place with a carriage return; Stop clears it so final output is clean.
type Progress struct {
	w        io.Writer
	accesses *Counter // cumulative simulated accesses; optional
	done     *Gauge   // experiments completed; optional
	total    *Gauge   // experiments planned; optional

	mu        sync.Mutex
	start     time.Time
	lastAcc   uint64
	lastTime  time.Time
	lastWidth int
	stop      chan struct{}
	stopped   sync.WaitGroup
}

// NewProgress builds a progress line over the given sources. Any source
// may be nil; the line shows only what it has.
func NewProgress(w io.Writer, accesses *Counter, done, total *Gauge) *Progress {
	now := time.Now()
	return &Progress{w: w, accesses: accesses, done: done, total: total,
		start: now, lastTime: now}
}

// Start begins redrawing every interval until Stop.
func (p *Progress) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	p.stop = make(chan struct{})
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case now := <-t.C:
				p.draw(now)
			}
		}
	}()
}

// Stop halts redrawing and clears the line.
func (p *Progress) Stop() {
	if p.stop != nil {
		close(p.stop)
		p.stopped.Wait()
		p.stop = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastWidth > 0 {
		fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", p.lastWidth))
		p.lastWidth = 0
	}
}

func (p *Progress) draw(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	line := p.line(now)
	// Widths are in runes, not bytes: each " · " separator is four bytes
	// but three columns.
	width := utf8.RuneCountInString(line)
	fmt.Fprintf(p.w, "\r%s%s", line, strings.Repeat(" ", max(p.lastWidth-width, 0)))
	p.lastWidth = width
}

// line composes the status text for the given instant. Factored out of
// draw (and given an explicit clock) so tests can pin time.
func (p *Progress) line(now time.Time) string {
	var parts []string
	if p.done != nil || p.total != nil {
		done, total := p.done.Value(), p.total.Value()
		parts = append(parts, fmt.Sprintf("%d/%d experiments", done, total))
		if elapsed := now.Sub(p.start); done > 0 && total > done && elapsed > 0 {
			eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			parts = append(parts, "ETA "+eta.Round(time.Second).String())
		}
	}
	if p.accesses != nil {
		acc := p.accesses.Value()
		dt := now.Sub(p.lastTime).Seconds()
		if dt > 0 {
			// The leading figure is the instantaneous (windowed) rate —
			// what the replay is doing right now — with the cumulative
			// average alongside, so a slow phase late in a long replay
			// reads as a dip instead of being flattened into the mean.
			rate := float64(acc-p.lastAcc) / dt
			part := fmt.Sprintf("%.1f MAcc/s", rate/1e6)
			if elapsed := now.Sub(p.start).Seconds(); elapsed > 0 {
				part += fmt.Sprintf(" (avg %.1f)", float64(acc)/elapsed/1e6)
			}
			parts = append(parts, part)
		}
		parts = append(parts, fmt.Sprintf("%d accesses", acc))
		p.lastAcc, p.lastTime = acc, now
	}
	parts = append(parts, "elapsed "+now.Sub(p.start).Round(time.Second).String())
	return "  " + strings.Join(parts, " · ")
}
