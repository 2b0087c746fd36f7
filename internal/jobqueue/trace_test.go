package jobqueue

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"jouppi/internal/backoff"
	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
)

// getTrace fetches the finished trace for a settled job.
func getTrace(t *testing.T, q *Queue, jobID string) trace.TraceData {
	t.Helper()
	td, ok := q.Tracer().TraceByID(jobID)
	if !ok {
		t.Fatalf("no trace retained for job %s", jobID)
	}
	return td
}

// TestJobSpanTreeAccountsWallClock is the accounting contract from the
// tracing design: the root span's direct children (queue-wait + run)
// must cover at least 95% of the job's end-to-end wall-clock, so a slow
// job always has a named stage to blame.
func TestJobSpanTreeAccountsWallClock(t *testing.T) {
	q := NewQueue(Options{Workers: 1, Version: "test"})
	defer q.Drain(time.Second)

	job, err := q.Submit(uploadSpec(t, testTraceDin(5000), "victim=4;misscache=2"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, job); st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}

	td := getTrace(t, q, job.ID())
	if td.Root != "job" {
		t.Fatalf("root span = %q", td.Root)
	}
	root := td.Spans[len(td.Spans)-1]
	if root.Name != "job" {
		t.Fatalf("last span = %q, want the root", root.Name)
	}
	total := root.Duration()
	if total <= 0 {
		t.Fatalf("root duration = %v", total)
	}
	var covered time.Duration
	for _, s := range td.Spans {
		if s.Parent == root.ID {
			covered += s.Duration()
		}
	}
	if ratio := float64(covered) / float64(total); ratio < 0.95 {
		t.Fatalf("direct children cover %.1f%% of the root (%v of %v), want >= 95%%",
			100*ratio, covered, total)
	}

	// The expected stages must each be present, correctly parented.
	for _, name := range []string{"queue-wait", "run", "attempt", "decode", "replay"} {
		if _, ok := td.Span(name); !ok {
			t.Fatalf("span %q missing from %v", name, spanNames(td))
		}
	}
	run, _ := td.Span("run")
	att, _ := td.Span("attempt")
	if att.Parent != run.ID {
		t.Fatalf("attempt parent = %q, want run %q", att.Parent, run.ID)
	}
	dec, _ := td.Span("decode")
	if dec.Parent != att.ID {
		t.Fatalf("decode parent = %q, want attempt %q", dec.Parent, att.ID)
	}
	if dec.Attr("records") == "" {
		t.Fatalf("decode attrs = %v, want a records count", dec.Attrs)
	}
	// One replay span for every configuration, hanging off the attempt.
	var replays int
	for _, s := range td.Spans {
		if s.Name == "replay" {
			replays++
			if s.Parent != att.ID {
				t.Fatalf("replay parent = %q, want attempt %q", s.Parent, att.ID)
			}
			if got := s.Attr("configs"); got != "2" {
				t.Fatalf("replay configs = %q, want 2", got)
			}
		}
	}
	if replays != 1 {
		t.Fatalf("replay spans = %d, want one for the job", replays)
	}
}

func spanNames(td trace.TraceData) []string {
	var names []string
	for _, s := range td.Spans {
		names = append(names, s.Name)
	}
	return names
}

// TestDedupJoinSpan checks that a second identical submission while the
// first is in flight marks a dedup-join on the primary's trace and
// journal instead of running twice.
func TestDedupJoinSpan(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	q := NewQueue(Options{
		Workers: 1, Version: "test",
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &ResultBody{Version: version, TraceDigest: spec.TraceDigest(),
				Configs: []ConfigResult{{Label: "baseline"}}}, nil
		},
	})
	defer q.Drain(time.Second)

	spec := uploadSpec(t, testTraceDin(20), "")
	first, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := q.Submit(uploadSpec(t, testTraceDin(20), ""))
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("identical submission got its own job %s, want join to %s",
			second.ID(), first.ID())
	}
	close(release)
	if st := waitJob(t, first); st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}

	td := getTrace(t, q, first.ID())
	join, ok := td.Span("dedup-join")
	if !ok {
		t.Fatalf("no dedup-join span in %v", spanNames(td))
	}
	root := td.Spans[len(td.Spans)-1]
	if join.Parent != root.ID {
		t.Fatalf("dedup-join parent = %q, want root %q", join.Parent, root.ID)
	}

	// The journal carries the matching dup-join event.
	var buf []telemetry.Event
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := first.StreamEvents(ctx, func(chunk []byte) error {
		events, err := telemetry.ReadEvents(bytes.NewReader(chunk))
		if err == nil {
			buf = append(buf, events...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range buf {
		if e.Event == "dup-join" && e.ID == first.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dup-join event in journal (%d events)", len(buf))
	}
}

// TestRetryBackoffSpans checks a retried job's trace separates attempt
// time from backoff time: two attempt spans with one backoff span
// between them.
func TestRetryBackoffSpans(t *testing.T) {
	var calls int
	q := NewQueue(Options{
		Workers: 1, Version: "test", Retries: 1,
		Backoff: backoff.Policy{Base: 5 * time.Millisecond, Max: 10 * time.Millisecond},
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			calls++
			if calls == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return &ResultBody{Version: version, TraceDigest: spec.TraceDigest(),
				Configs: []ConfigResult{{Label: "baseline"}}}, nil
		},
	})
	defer q.Drain(time.Second)

	job, err := q.Submit(uploadSpec(t, testTraceDin(20), ""))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, job); st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}

	td := getTrace(t, q, job.ID())
	var attempts, backoffs int
	var failedAttempt trace.SpanData
	for _, s := range td.Spans {
		switch s.Name {
		case "attempt":
			attempts++
			if s.Attr("err") != "" {
				failedAttempt = s
			}
		case "backoff":
			backoffs++
		}
	}
	if attempts != 2 || backoffs != 1 {
		t.Fatalf("attempts = %d, backoffs = %d (spans %v), want 2 and 1",
			attempts, backoffs, spanNames(td))
	}
	if failedAttempt.Attr("err") != "transient failure" {
		t.Fatalf("failed attempt err attr = %q", failedAttempt.Attr("err"))
	}
	root := td.Spans[len(td.Spans)-1]
	if root.Attr("state") != string(StateDone) {
		t.Fatalf("root state attr = %q", root.Attr("state"))
	}
}

// TestCacheHitTrace checks a store-answered submission still produces a
// complete (if tiny) trace: a store-read child and a cache_hit-marked
// root.
func TestCacheHitTrace(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(Options{Workers: 1, Version: "test", Store: store})
	defer q.Drain(time.Second)

	first, err := q.Submit(uploadSpec(t, testTraceDin(20), ""))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)

	second, err := q.Submit(uploadSpec(t, testTraceDin(20), ""))
	if err != nil {
		t.Fatal(err)
	}
	st := second.Status()
	if !st.CacheHit {
		t.Fatalf("second submission not a cache hit: %+v", st)
	}
	td := getTrace(t, q, second.ID())
	root := td.Spans[len(td.Spans)-1]
	if root.Attr("cache_hit") != "true" || root.Attr("state") != string(StateDone) {
		t.Fatalf("cache-hit root attrs = %v", root.Attrs)
	}
	if _, ok := td.Span("store-read"); !ok {
		t.Fatalf("no store-read span in %v", spanNames(td))
	}
}
