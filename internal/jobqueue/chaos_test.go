package jobqueue

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"jouppi/internal/faultinject"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
	"jouppi/sim"
)

// chaosScale returns the load profile: the short profile runs in CI,
// the full one is opted into with CACHESIMD_LOADTEST=full (make
// loadtest-full).
func chaosScale(t *testing.T) (submissions, clients int) {
	if os.Getenv("CACHESIMD_LOADTEST") == "full" {
		return 5000, 64
	}
	if testing.Short() {
		return 1000, 32
	}
	return 1500, 32
}

// chaosConfigs are the fan-out specs the chaos clients draw from.
var chaosConfigs = []string{
	"",
	"victim=4",
	"misscache=2;misscache=4",
	"sys=improved",
}

// expectedOutcome is what a direct (daemon-free) execution of a spec
// produces: either a decode error or per-config results.
type expectedOutcome struct {
	decodeErr bool
	dropped   uint64
	results   []sim.Results
}

// directReplay computes a spec's ground truth with the library alone —
// the same decode policy and replay the daemon claims to perform.
func directReplay(t *testing.T, spec *Spec) expectedOutcome {
	t.Helper()
	var (
		tr   *memtrace.Trace
		degr memtrace.Degradation
	)
	if spec.Lenient {
		dr := memtrace.NewDineroReader(bytes.NewReader(spec.TraceData))
		dr.Lenient(spec.MaxDrops)
		tr = memtrace.NewTrace(0)
		memtrace.Each(dr, tr.Append)
		if dr.Err() != nil {
			return expectedOutcome{decodeErr: true}
		}
		degr = dr.Degradation()
	} else {
		var err error
		tr, err = memtrace.ReadDinero(bytes.NewReader(spec.TraceData))
		if err != nil {
			return expectedOutcome{decodeErr: true}
		}
	}
	out := expectedOutcome{dropped: degr.Dropped}
	for _, cs := range spec.Configs {
		sys, err := sim.NewSystem(cs.Config)
		if err != nil {
			t.Fatalf("direct replay: %v", err)
		}
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
		out.results = append(out.results, sys.Results())
	}
	return out
}

// TestChaosLoad floods the daemon's HTTP API with concurrent
// submissions — a tenth of them carrying fault-injected traces — and
// verifies the three invariants the service exists for: no accepted job
// is ever lost (every one reaches a terminal, queryable state), no
// completed job reports numbers that differ from a direct library
// replay of the same spec, and overload surfaces as 429 + Retry-After
// rather than unbounded queueing. Run it under -race; the scheduling
// noise is the point.
func TestChaosLoad(t *testing.T) {
	submissions, clients := chaosScale(t)

	reg := telemetry.NewRegistry()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Overload is engineered, not hoped for: the runner holds its first
	// jobs until the clients have collectively watched the queue
	// overflow, so queue-full handling is exercised on every run — fast
	// machines and slow race-detector runs alike. Once released it is
	// the real runner, so results still match the direct replay.
	var release sync.Once
	hold := make(chan struct{})
	unblock := func() { release.Do(func() { close(hold) }) }
	defer time.AfterFunc(5*time.Second, unblock).Stop() // never let clients starve
	q := NewQueue(Options{
		Workers:    2,
		QueueDepth: 2, // tiny on purpose: overload must actually happen
		Store:      store,
		Registry:   reg,
		MaxJobs:    submissions + 16, // retention must not lose jobs mid-test
		Version:    "chaos",
		Runner: func(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return DefaultRunner(ctx, spec, version)
		},
	})
	srv := httptest.NewServer(NewServer(q, reg))
	defer srv.Close()
	defer q.Drain(10 * time.Second)
	client := srv.Client()
	client.Timeout = 30 * time.Second

	// A pool of distinct base traces. Reuse across submissions makes
	// cache hits and dup-joins happen under fire, not just in unit tests.
	baseTraces := make([][]byte, 50)
	for i := range baseTraces {
		baseTraces[i] = testTraceDin(400 + 13*i)
	}

	type submission struct {
		spec *Spec
		id   string
	}
	var (
		mu       sync.Mutex
		accepted []submission
		got429   int
		invalid  int
	)

	var wg sync.WaitGroup
	perClient := submissions / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int, httpc *http.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(client)))
			for i := 0; i < perClient; i++ {
				seq := client*perClient + i
				trace := baseTraces[rng.Intn(len(baseTraces))]
				req := SubmitRequest{
					TraceFormat: FormatDinero,
					Configs:     chaosConfigs[rng.Intn(len(chaosConfigs))],
				}
				if seq%10 == 0 {
					// Every tenth submission uploads a fault-injected
					// trace, decoded leniently so record damage degrades
					// instead of failing — except header damage, which
					// may kill the whole decode; both outcomes are
					// verified against the direct replay.
					switch seq % 3 {
					case 0:
						trace = faultinject.FlipBits(trace, int64(seq), 8)
					case 1:
						trace = faultinject.Truncate(trace, int64(seq))
					default:
						trace = faultinject.TruncateHeader(trace, int64(seq))
					}
					req.Lenient = true
				}
				if len(trace) == 0 {
					// Header truncation can cut a trace to nothing; the
					// API rejects an empty upload at validation (400),
					// which is the correct outcome, not a lost job.
					mu.Lock()
					invalid++
					mu.Unlock()
					continue
				}
				req.Trace = base64.StdEncoding.EncodeToString(trace)

				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				// Submit, backing off briefly on 429 the way a well-
				// behaved client would. Overload is expected; loss is not.
				for attempt := 0; ; attempt++ {
					resp, err := httpc.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("client %d: %v", client, err)
						return
					}
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests {
						mu.Lock()
						got429++
						sated := got429 >= 32
						mu.Unlock()
						if sated {
							unblock()
						}
						if resp.Header.Get("Retry-After") == "" {
							t.Error("429 without Retry-After")
							return
						}
						if attempt > 2000 {
							t.Errorf("client %d: starved by 429s", client)
							return
						}
						time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
						t.Errorf("client %d: status %d: %s", client, resp.StatusCode, data)
						return
					}
					var st Status
					if err := json.Unmarshal(data, &st); err != nil {
						t.Errorf("client %d: bad status body: %v", client, err)
						return
					}
					spec, err := req.ToSpec()
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					accepted = append(accepted, submission{spec: spec, id: st.ID})
					mu.Unlock()
					break
				}
			}
		}(c, client)
	}
	wg.Wait()

	if len(accepted)+invalid != clients*perClient {
		t.Fatalf("accepted %d + invalid %d submissions, want %d", len(accepted), invalid, clients*perClient)
	}
	if got429 == 0 {
		t.Error("no submission ever saw 429: the queue was never saturated, weaken QueueDepth")
	}

	// Invariant 1: zero lost jobs. Every accepted submission names a job
	// that still exists and reaches a terminal state.
	deadline := time.Now().Add(2 * time.Minute)
	for _, s := range accepted {
		job, ok := q.Job(s.id)
		if !ok {
			t.Fatalf("job %s vanished (lost job)", s.id)
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		err := job.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("job %s never settled: %v", s.id, err)
		}
	}

	// Invariant 2: zero incorrect results. Completed jobs match a direct
	// library replay of the same spec bit for bit; failed jobs are
	// exactly the specs whose decode fails directly too. Ground truth is
	// computed once per unique cache key.
	expected := make(map[string]expectedOutcome)
	var verified, failedJobs, degraded int
	for _, s := range accepted {
		key := s.spec.CacheKey("chaos")
		want, ok := expected[key]
		if !ok {
			want = directReplay(t, s.spec)
			expected[key] = want
		}
		job, _ := q.Job(s.id)
		st := job.Status()
		switch st.State {
		case StateFailed:
			failedJobs++
			if !want.decodeErr {
				t.Fatalf("job %s failed (%s) but the spec replays cleanly", s.id, st.Error)
			}
		case StateDone:
			if want.decodeErr {
				t.Fatalf("job %s completed but direct decode fails", s.id)
			}
			var body ResultBody
			if err := json.Unmarshal(st.Result, &body); err != nil {
				t.Fatalf("job %s: bad result: %v", s.id, err)
			}
			if len(body.Configs) != len(want.results) {
				t.Fatalf("job %s: %d config results, want %d", s.id, len(body.Configs), len(want.results))
			}
			for i, cr := range body.Configs {
				if cr.Results != want.results[i] {
					t.Fatalf("job %s config %q diverges from direct replay:\n got %+v\nwant %+v",
						s.id, cr.Label, cr.Results, want.results[i])
				}
			}
			var gotDropped uint64
			if body.Degradation != nil {
				gotDropped = body.Degradation.Dropped
			}
			if gotDropped != want.dropped {
				t.Fatalf("job %s: dropped %d, want %d", s.id, gotDropped, want.dropped)
			}
			if gotDropped > 0 {
				degraded++
			}
			verified++
		default:
			t.Fatalf("job %s settled in state %s", s.id, st.State)
		}
	}
	if verified == 0 {
		t.Fatal("no job completed")
	}

	// Invariant 3: duplicates deduplicate. With 50 traces and 4 config
	// specs there are at most 200 clean cache keys; the overwhelming
	// majority of clean submissions must have been answered by a join or
	// a byte-identical cache hit, and the store's bytes must agree with
	// the job records.
	snap := reg.Snapshot()
	hits := snap["jobqueue_cache_hits_total"]
	joined := snap["jobqueue_joined_total"]
	if hits+joined == 0 {
		t.Error("no submission was deduplicated despite heavy spec reuse")
	}
	byKey := make(map[string][]byte)
	for _, s := range accepted {
		job, _ := q.Job(s.id)
		res := job.Result()
		if res == nil {
			continue
		}
		key := s.spec.CacheKey("chaos")
		if prev, ok := byKey[key]; ok && !bytes.Equal(prev, res) {
			t.Fatalf("two jobs for one cache key returned different bytes")
		}
		byKey[key] = res
		if cached, ok := store.Get(key); ok && !bytes.Equal(cached, res) {
			t.Fatalf("store bytes diverge from job result for key %s", key)
		}
	}

	if snap["jobqueue_submitted_total"] != float64(len(accepted)) {
		t.Errorf("jobqueue_submitted_total = %v, want %d", snap["jobqueue_submitted_total"], len(accepted))
	}
	if snap["jobqueue_queue_full_total"] != float64(got429) {
		t.Errorf("jobqueue_queue_full_total = %v, want %d", snap["jobqueue_queue_full_total"], got429)
	}
	if snap["jobqueue_job_duration_seconds_count"] == 0 {
		t.Error("job duration histogram never observed")
	}
	t.Logf("chaos: %d submissions, %d unique jobs, %d verified done (%d degraded), %d failed, %d joined, %.0f cache hits, %d rejections with 429",
		len(accepted), len(byKey), verified, degraded, failedJobs, int(joined), hits, got429)
}
