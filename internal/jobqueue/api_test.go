package jobqueue

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"jouppi/internal/telemetry"
)

// newTestServer builds a queue + API pair over an httptest server.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Queue, *telemetry.Registry) {
	t.Helper()
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
		opts.Registry = reg
	}
	if opts.Version == "" {
		opts.Version = "test"
	}
	q := NewQueue(opts)
	srv := httptest.NewServer(NewServer(q, reg))
	t.Cleanup(func() {
		srv.Close()
		q.Drain(time.Second)
	})
	return srv, q, reg
}

func submitJSON(t *testing.T, srv *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &st)
	return resp, st
}

func getStatus(t *testing.T, srv *httptest.Server, id string) (int, Status) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatal(err)
	}
	return resp.StatusCode, st
}

// pollDone polls GET /jobs/{id} until the job is terminal.
func pollDone(t *testing.T, srv *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, srv, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return Status{}
}

func TestAPISubmitBenchmarkJob(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{Workers: 2})

	resp, st := submitJSON(t, srv,
		`{"benchmark": "liver", "scale": 0.02, "configs": "misscache=2;misscache=4"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	done := pollDone(t, srv, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s, err %q", done.State, done.Error)
	}
	var body ResultBody
	if err := json.Unmarshal(done.Result, &body); err != nil {
		t.Fatal(err)
	}
	if body.Benchmark != "liver" || len(body.Configs) != 2 {
		t.Fatalf("result = %+v", body)
	}
	if body.Configs[0].Results.Instructions == 0 {
		t.Fatal("benchmark replay produced no instructions")
	}
}

func TestAPISubmitUploadedTrace(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{Workers: 1})

	trace := base64.StdEncoding.EncodeToString(testTraceDin(50))
	resp, st := submitJSON(t, srv, fmt.Sprintf(
		`{"trace": %q, "trace_format": "din", "configs": "victim=4", "timeout": "30s"}`, trace))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	done := pollDone(t, srv, st.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s, err %q", done.State, done.Error)
	}
}

// TestAPISubmitFreshJobIsAccepted pins that a fresh job gets a 202 even
// when an instant runner has finished it before the handler reads its
// status: only a job answered from the result store gets a 200.
func TestAPISubmitFreshJobIsAccepted(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{
		Workers: 2,
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			return &ResultBody{TraceDigest: spec.TraceDigest()}, nil
		},
	})
	for i := 0; i < 50; i++ {
		trace := base64.StdEncoding.EncodeToString(testTraceDin(i + 1))
		resp, st := submitJSON(t, srv, fmt.Sprintf(`{"trace": %q, "trace_format": "din"}`, trace))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: POST /jobs = %d (state %s), want 202", i, resp.StatusCode, st.State)
		}
		pollDone(t, srv, st.ID)
	}
}

func TestAPIBadRequests(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{Workers: 1})
	for name, body := range map[string]string{
		"not json":       `{"benchmark": `,
		"unknown field":  `{"benchmark": "liver", "scale": 1, "frobnicate": true}`,
		"no input":       `{"configs": "victim=4"}`,
		"both inputs":    `{"benchmark": "liver", "scale": 1, "trace": "AAAA", "trace_format": "din"}`,
		"bad benchmark":  `{"benchmark": "nonesuch", "scale": 1}`,
		"bad base64":     `{"trace": "!!!", "trace_format": "din"}`,
		"bad format":     `{"trace": "AAAA", "trace_format": "elf"}`,
		"bad config":     `{"benchmark": "liver", "scale": 1, "configs": "frobnicate=1"}`,
		"bad timeout":    `{"benchmark": "liver", "scale": 1, "timeout": "soon"}`,
		"negative scale": `{"benchmark": "liver", "scale": -1}`,
	} {
		resp, _ := submitJSON(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if code, _ := getStatus(t, srv, "j99999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
}

// TestAPIRejectsShardsField pins that the retired "shards" job field is
// refused with a 400 that names it, not silently served sequentially.
func TestAPIRejectsShardsField(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{Workers: 1})
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"benchmark": "liver", "scale": 0.02, "shards": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `unknown field "shards"`) {
		t.Fatalf("POST with shards = %d %q, want 400 naming the field", resp.StatusCode, body.Error)
	}
}

// TestTraceSpan pins which bodies have their trace cut out and decoded
// in place, and which are left whole to encoding/json.
func TestTraceSpan(t *testing.T) {
	for _, tc := range []struct {
		body string
		span string // the cut trace contents; "-" when nothing is cut
	}{
		{`{"trace_format":"din","configs":"victim=4","trace":"AAAA"}`, "AAAA"},
		{" {\"trace\" :\t\"AA\\\"A\" ,\n\"scale\":1e3,\"lenient\":true}", `AA\"A`},
		{`{"Trace":"","retries":null}`, ""},
		{`{"trace":"AAAA"} {"trace":"BBBB"}`, "AAAA"},
		{`{"trace":"AAAA","shards":2}`, "AAAA"},
		{`{"benchmark":"liver","scale":0.02}`, "-"},
		{`{"trace":"AAAA","TRACE":"BBBB"}`, "-"},
		{`{"tr\u0061ce":"AAAA"}`, "-"},
		{`{"trace\u00e9":"AAAA"}`, "-"},
		{`{"trace":null}`, "-"},
		{`{"trace":"AAAA","configs":["victim=4"]}`, "-"},
		{`{"trace":"AAAA","configs":"victim=4"`, "-"},
		{`{"trace":"AAAA" "configs":"victim=4"}`, "-"},
		{`["trace","AAAA"]`, "-"},
		{`{}`, "-"},
	} {
		start, end, cut := traceSpan([]byte(tc.body))
		got := "-"
		if cut {
			got = tc.body[start:end]
		}
		if got != tc.span {
			t.Errorf("traceSpan(%s) cut %q, want %q", tc.body, got, tc.span)
		}
	}
}

// TestAPIRequestSizeLimit pins the body limit at the handler. A body
// declared longer than maxRequestBytes is refused before a buffer that
// large is allocated; a body declared at the limit that sends a few
// bytes allocates no more than maxPresize for them; one of unknown
// length is refused once it runs past the limit; a small body of
// unknown length is read whole.
func TestAPIRequestSizeLimit(t *testing.T) {
	q := NewQueue(Options{Workers: 1, Version: "test"})
	defer q.Drain(time.Second)
	srv := NewServer(q, telemetry.NewRegistry())
	small := `{"benchmark": "liver", "scale": 0.02}`
	const tooLarge = "request body too large"
	for _, tc := range []struct {
		name     string
		body     io.Reader
		length   int64 // the declared Content-Length; -1 for none
		code     int
		want     string // in the error body of a 400
		maxAlloc uint64 // bytes the request may allocate; 0 for no bound
	}{
		{"declared over the limit", strings.NewReader(small), maxRequestBytes + 1, http.StatusBadRequest, tooLarge, 1 << 20},
		{"declared at the limit, a few bytes sent", strings.NewReader(`{"bogus": 1}`), maxRequestBytes, http.StatusBadRequest, "unknown field", maxPresize + 1<<20},
		{"runs over the limit", io.LimitReader(repeatReader('A'), maxRequestBytes+1), -1, http.StatusBadRequest, tooLarge, 0},
		{"small, length unknown", strings.NewReader(small), -1, http.StatusAccepted, "", 0},
	} {
		req := httptest.NewRequest(http.MethodPost, "/jobs", tc.body)
		req.ContentLength = tc.length
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.Code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, w.Code, w.Body, tc.code)
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: body %s, want %q named", tc.name, w.Body, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; tc.maxAlloc > 0 && got > tc.maxAlloc {
			t.Errorf("%s: allocated %d bytes, want at most %d", tc.name, got, tc.maxAlloc)
		}
	}
}

// repeatReader reads as an endless run of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

func TestAPIQueueFullReturns429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	srv, _, _ := newTestServer(t, Options{
		Workers: 1, QueueDepth: 1,
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			<-release
			return &ResultBody{TraceDigest: spec.TraceDigest()}, nil
		},
	})
	defer close(release)

	var got429 bool
	for i := 0; i < 4 && !got429; i++ {
		trace := base64.StdEncoding.EncodeToString(testTraceDin(i + 1))
		resp, _ := submitJSON(t, srv, fmt.Sprintf(`{"trace": %q, "trace_format": "din"}`, trace))
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatal("queue never returned 429")
	}
}

func TestAPIDrainingReturns503(t *testing.T) {
	srv, q, _ := newTestServer(t, Options{Workers: 1})
	q.Drain(time.Second)
	resp, _ := submitJSON(t, srv, `{"benchmark": "liver", "scale": 0.02}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

func TestAPIEventsStreamsJournal(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{Workers: 1})
	_, st := submitJSON(t, srv, `{"benchmark": "liver", "scale": 0.02, "configs": "victim=2"}`)

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The stream ends when the job settles; every line is a journal event.
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, e.Event)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Span closes interleave with the lifecycle events (the queue-wait
	// span closes before run-start, the root "job" span after
	// run-finish); the RunAll framing must still be present in order.
	var lifecycle []string
	for _, k := range kinds {
		if k != "span" {
			lifecycle = append(lifecycle, k)
		}
	}
	if len(lifecycle) == 0 || lifecycle[0] != "run-start" || lifecycle[len(lifecycle)-1] != "run-finish" {
		t.Fatalf("event kinds = %v", kinds)
	}
}

func TestAPIHealthAndMetrics(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, _, _ := newTestServer(t, Options{Workers: 1, Store: store})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status      string `json:"status"`
		Draining    bool   `json:"draining"`
		Version     string `json:"version"`
		Quarantined int    `json:"quarantined"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Draining || health.Version != "test" {
		t.Fatalf("health = %+v", health)
	}

	_, st := submitJSON(t, srv, `{"benchmark": "liver", "scale": 0.02}`)
	pollDone(t, srv, st.ID)

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"jobqueue_submitted_total 1",
		"jobqueue_completed_total 1",
		"jobqueue_job_duration_seconds_count 1",
		"jobqueue_depth 0",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
