// Package jobqueue is the engine of cachesimd, the simulation-as-a-
// service daemon: a bounded job queue with a worker pool that executes
// simulation jobs through the same resilient runner the CLI sweeps use
// (experiments.RunAll — panic isolation, per-attempt timeouts, retries
// paced by capped exponential backoff), in front of a content-addressed
// crash-safe result store.
//
// The design favours predictable degradation over unbounded queues:
// admission is a non-blocking send into a fixed-depth channel (full →
// ErrQueueFull, which the API layer maps to 429), identical in-flight
// submissions join the existing job instead of running twice, and a
// drain stops admission, rejects what is still queued, and gives
// in-flight jobs a deadline to finish before cancelling them.
package jobqueue

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"
	"time"

	"jouppi/internal/backoff"
	"jouppi/internal/experiments"
	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
	"jouppi/sim"
)

// Queue admission errors.
var (
	// ErrQueueFull reports that the bounded queue had no room; the
	// client should back off and resubmit (HTTP 429).
	ErrQueueFull = fmt.Errorf("jobqueue: queue full")
	// ErrDraining reports that the daemon is shutting down and admits
	// nothing new (HTTP 503).
	ErrDraining = fmt.Errorf("jobqueue: server draining")
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateRejected State = "rejected" // queued at drain time, never ran
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateRejected
}

// Status is a point-in-time snapshot of a job, shaped for the API.
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Attempts counts runner invocations (1 + retries); 0 until the
	// first attempt starts, and for cache hits.
	Attempts int       `json:"attempts,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Result is the canonical ResultBody JSON, present when done.
	Result json.RawMessage `json:"result,omitempty"`
}

// Job is one admitted submission.
type Job struct {
	id     string
	key    string
	spec   *Spec
	events *eventLog
	// jnl is the job's journal over events: RunAll lifecycle events and
	// span closes interleave on it, so /jobs/{id}/events is the complete
	// per-job timeline.
	jnl *telemetry.Journal
	// root is the job's root span (admission to terminal state);
	// queueWait covers admission to worker pickup. Both nil-safe.
	root      *trace.Span
	queueWait *trace.Span
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu    sync.Mutex
	state State
	// settling is set once finish has claimed the job; its terminal
	// state is published only after its trace, log line and metrics.
	settling bool
	err      string
	cacheHit bool
	attempts int
	created  time.Time
	started  time.Time
	finished time.Time
	result   []byte
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:       j.id,
		State:    j.state,
		Error:    j.err,
		CacheHit: j.cacheHit,
		Attempts: j.attempts,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Result:   json.RawMessage(j.result),
	}
}

// Result returns the encoded ResultBody, or nil if the job is not done.
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// StreamEvents replays the job's JSONL event log from the beginning and
// follows it live until the job is terminal or ctx is done. The schema
// is the experiments journal schema (telemetry.Event).
func (j *Job) StreamEvents(ctx context.Context, emit func([]byte) error) error {
	return j.events.stream(ctx, emit)
}

// Options configures a Queue. The zero value is usable: one worker, a
// small queue, no cache, defaults for every bound.
type Options struct {
	// Workers is the worker-pool size (1 when zero or negative).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (16 when 0).
	QueueDepth int
	// JobTimeout bounds each attempt of a job that does not set its own
	// (0 = unbounded). JobDeadline bounds the whole job across attempts
	// and backoff waits.
	JobTimeout  time.Duration
	JobDeadline time.Duration
	// Retries re-runs a retryably-failed job this many extra times.
	Retries int
	// Backoff paces retries; the zero policy's defaults apply.
	Backoff backoff.Policy
	// Store, when non-nil, is the content-addressed result cache.
	Store *Store
	// Registry receives the queue's metrics; a private registry is used
	// when nil (metrics still work, just unexported).
	Registry *telemetry.Registry
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// evicted past it (1024 when 0).
	MaxJobs int
	// Runner executes jobs (DefaultRunner when nil).
	Runner Runner
	// Version is the build identity folded into cache keys and results.
	Version string
	// Logger receives structured job-lifecycle logs, every record
	// carrying the job ID (and span ID where one exists) so a single job
	// can be followed across logs, spans, journal events, and metrics by
	// one ID. Nil discards.
	Logger *slog.Logger
	// TraceCapacity bounds the ring of finished job traces served at
	// /debug/traces (256 when 0).
	TraceCapacity int
	// QueueWaitP99 and ProfileDir arm the SLO profile trigger: when the
	// queue-wait p99 exceeds QueueWaitP99, a pprof CPU profile is
	// captured into ProfileDir (one per cooldown window). Both must be
	// set; ProfileDuration/ProfileCooldown override the 2s capture and
	// 10m cooldown defaults.
	QueueWaitP99    time.Duration
	ProfileDir      string
	ProfileDuration time.Duration
	ProfileCooldown time.Duration
}

// queueTel is the metric set a Queue publishes.
type queueTel struct {
	submitted   *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	rejected    *telemetry.Counter
	queueFull   *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	joined      *telemetry.Counter
	retries     *telemetry.Counter
	storeErrors *telemetry.Counter
	depth       *telemetry.Gauge
	running     *telemetry.Gauge
	duration    *telemetry.Histogram
}

func newQueueTel(reg *telemetry.Registry) *queueTel {
	return &queueTel{
		submitted:   reg.Counter("jobqueue_submitted_total", "jobs admitted (including cache hits and joins)"),
		completed:   reg.Counter("jobqueue_completed_total", "jobs that finished with a result"),
		failed:      reg.Counter("jobqueue_failed_total", "jobs whose final outcome was a failure"),
		rejected:    reg.Counter("jobqueue_rejected_total", "queued jobs rejected by a drain"),
		queueFull:   reg.Counter("jobqueue_queue_full_total", "submissions refused because the queue was full"),
		cacheHits:   reg.Counter("jobqueue_cache_hits_total", "submissions answered from the result store"),
		cacheMisses: reg.Counter("jobqueue_cache_misses_total", "submissions that had to run"),
		joined:      reg.Counter("jobqueue_joined_total", "submissions joined to an identical in-flight job"),
		retries:     reg.Counter("jobqueue_retries_total", "job attempts beyond the first"),
		storeErrors: reg.Counter("jobqueue_store_errors_total", "result-store writes that failed"),
		depth:       reg.Gauge("jobqueue_depth", "jobs admitted but not yet running"),
		running:     reg.Gauge("jobqueue_running", "jobs currently executing"),
		duration: reg.Histogram("jobqueue_job_duration_seconds",
			"wall time from admission to terminal state", telemetry.DefaultDurationBuckets()),
	}
}

// Queue is the daemon's bounded job queue and worker pool.
type Queue struct {
	opts   Options
	tel    *queueTel
	log    *slog.Logger
	tracer *trace.Tracer
	slo    *trace.SLO
	prof   *trace.CPUProfile

	baseCtx    context.Context
	baseCancel context.CancelFunc
	ch         chan *Job
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job
	byKey    map[string]*Job // non-terminal jobs by cache key (dup-join)
	order    []string        // job IDs in admission order (eviction)
}

// NewQueue builds the queue and starts its workers.
func NewQueue(opts Options) *Queue {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1024
	}
	if opts.Runner == nil {
		opts.Runner = DefaultRunner
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		opts:       opts,
		tel:        newQueueTel(reg),
		log:        log,
		baseCtx:    ctx,
		baseCancel: cancel,
		ch:         make(chan *Job, opts.QueueDepth),
		jobs:       make(map[string]*Job),
		byKey:      make(map[string]*Job),
	}
	// SLO latency series are derived from span closes: each close is one
	// Observe of a whole interval (the delta discipline — nothing is
	// recorded on the hot path). The queue-wait series additionally arms
	// the CPU-profile trigger when configured.
	q.slo = trace.NewSLO(reg, nil, trace.JobStages()...)
	if opts.QueueWaitP99 > 0 && opts.ProfileDir != "" {
		q.prof = &trace.CPUProfile{
			Dir:      opts.ProfileDir,
			Series:   "queuewait",
			Hist:     q.slo.Histogram("queue-wait"),
			Bound:    opts.QueueWaitP99,
			Duration: opts.ProfileDuration,
			Cooldown: opts.ProfileCooldown,
			Log:      log,
		}
	}
	q.tracer = trace.New(trace.Options{
		Capacity: opts.TraceCapacity,
		OnSpanEnd: func(d trace.SpanData) {
			q.slo.Observe(d)
			if d.Name == "queue-wait" {
				q.prof.Check()
			}
		},
	})
	for i := 0; i < opts.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Tracer exposes the finished-job trace ring (for /debug/traces).
func (q *Queue) Tracer() *trace.Tracer { return q.tracer }

// SLO exposes the per-stage latency accounting (for /debug/traces).
func (q *Queue) SLO() *trace.SLO { return q.slo }

// Profiler exposes the queue-wait CPU-profile trigger (nil when not
// armed).
func (q *Queue) Profiler() *trace.CPUProfile { return q.prof }

// Version returns the build identity folded into cache keys.
func (q *Queue) Version() string { return q.opts.Version }

// Job looks up a retained job by ID.
func (q *Queue) Job(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Submit validates and admits a job. It never blocks: the outcomes are
// an admitted (or joined, or cache-answered) job, ErrQueueFull, or
// ErrDraining. The returned job may already be terminal (cache hit).
// The job runs a copy of spec; the caller's spec is not modified.
func (q *Queue) Submit(spec *Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The copy carries the trace digest to the runner. It is set here,
	// before any worker can see the copy, and never written again.
	own := *spec
	own.digest = spec.TraceDigest()
	spec = &own
	key := spec.CacheKey(q.opts.Version)

	// The store read happens outside the lock: it is disk I/O, and the
	// worst a race costs is a duplicate cache probe. Its extent is
	// recorded retroactively as a store-read span once the job exists.
	probeStart := time.Now()
	cached, hit := q.opts.Store.Get(key)
	if hit {
		var err error
		if cached, err = relabel(cached, spec.Configs); err != nil {
			hit = false
		}
	}
	probeEnd := time.Now()

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, ErrDraining
	}
	sameLabels := func(a, b sim.LabeledConfig) bool { return a.Label == b.Label }
	if primary, ok := q.byKey[key]; ok && slices.EqualFunc(primary.spec.Configs, spec.Configs, sameLabels) {
		// An identical job is already queued or running: join it. A job
		// ID names one labelled result, so only a submission with the
		// same labels joins. The join is marked on the primary's trace
		// and journal so its timeline shows who it answered for.
		q.tel.submitted.Inc()
		q.tel.joined.Inc()
		now := time.Now()
		primary.root.Record("dedup-join", now, now)
		primary.jnl.Emit(telemetry.Event{Event: "dup-join", ID: primary.id})
		q.log.Info("job joined to identical in-flight job",
			"job", primary.id, "span", primary.root.ID())
		return primary, nil
	}

	q.seq++
	job := &Job{
		id:      fmt.Sprintf("j%08d", q.seq),
		key:     key,
		spec:    spec,
		events:  newEventLog(),
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	job.jnl = telemetry.NewJournal(job.events)
	job.root = q.tracer.Root("job", job.id, job.jnl, spec.traceAttrs()...)
	if q.opts.Store != nil {
		job.root.Record("store-read", probeStart, probeEnd,
			trace.String("hit", fmt.Sprint(hit)))
	}

	if hit {
		q.tel.submitted.Inc()
		q.tel.cacheHits.Inc()
		job.state = StateDone
		job.cacheHit = true
		job.finished = job.created
		job.result = cached
		job.jnl.Emit(telemetry.Event{Event: "experiment-finish", ID: job.id, Cached: true})
		job.root.SetAttr("state", string(StateDone))
		job.root.SetAttr("cache_hit", "true")
		job.root.End()
		job.events.Close()
		close(job.done)
		q.record(job)
		q.log.Info("job answered from result store", "job", job.id, "span", job.root.ID())
		return job, nil
	}

	// Queue wait opens before the job is published to a worker (the send
	// below hands the job to another goroutine) and closes when one picks
	// it up — or when a drain rejects it. On refusal the unfinished trace
	// is simply dropped; it never reaches the ring.
	job.queueWait = job.root.Start("queue-wait")
	select {
	case q.ch <- job:
	default:
		q.tel.queueFull.Inc()
		q.log.Warn("queue full, submission refused", "depth", q.opts.QueueDepth)
		return nil, ErrQueueFull
	}
	q.tel.submitted.Inc()
	q.tel.cacheMisses.Inc()
	q.tel.depth.Add(1)
	q.byKey[key] = job
	q.record(job)
	q.log.Info("job admitted", "job", job.id, "span", job.root.ID(),
		"benchmark", spec.Benchmark, "configs", len(spec.Configs))
	return job, nil
}

// record indexes a job and evicts the oldest terminal records past the
// retention bound. Callers hold q.mu.
func (q *Queue) record(job *Job) {
	q.jobs[job.id] = job
	q.order = append(q.order, job.id)
	if len(q.jobs) <= q.opts.MaxJobs {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		j := q.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal && len(q.jobs) > q.opts.MaxJobs {
			delete(q.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
}

// worker drains the queue until it closes.
func (q *Queue) worker() {
	defer q.wg.Done()
	for job := range q.ch {
		q.runJob(job)
	}
}

// runJob executes one job through experiments.RunAll, inheriting its
// panic isolation, per-attempt timeout, retry/backoff pacing, and
// journal events, then settles the job.
func (q *Queue) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued || job.settling {
		// Rejected by a racing drain after the worker pulled it.
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	job.mu.Unlock()

	// The root span rides the worker's context from here on: every stage
	// below — attempts, backoff sleeps, trace decode, fan-out replay,
	// store writes — hangs its span off this one.
	ctx := trace.ContextWith(q.baseCtx, job.root)
	if d := firstDuration(job.spec.Deadline, q.opts.JobDeadline); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// "run" covers everything between queue wait and settlement: all
	// attempts, the backoff sleeps between them, and the result-store
	// write. It opens just before queue-wait closes, so the two abut and
	// the cost of publishing the queue-wait span falls inside run:
	// together they account for the root's wall-clock to within
	// scheduling noise.
	rctx, runSpan := trace.Start(ctx, "run")
	job.queueWait.End()
	q.tel.depth.Add(-1)
	q.tel.running.Add(1)
	defer q.tel.running.Add(-1)
	q.log.Info("job running", "job", job.id, "span", job.root.ID(),
		"queue_wait_s", job.started.Sub(job.created).Seconds())
	retries := job.spec.Retries
	if retries < 0 {
		retries = q.opts.Retries
	}

	var (
		body    []byte
		lastErr error
	)
	exp := experiments.Experiment{
		ID:    job.id,
		Title: "cachesimd job " + job.id,
		Run: func(cfg experiments.Config) *experiments.Result {
			job.mu.Lock()
			job.attempts++
			job.mu.Unlock()
			res := &experiments.Result{ID: job.id, Title: "cachesimd job " + job.id}
			out, err := q.opts.Runner(cfg.Context(), job.spec, q.opts.Version)
			if err != nil {
				lastErr = err
				res.Err = err.Error()
				return res
			}
			data, err := out.Encode()
			if err != nil {
				lastErr = Permanent(err)
				res.Err = err.Error()
				return res
			}
			body = data
			return res
		},
	}
	results, _ := experiments.RunAll(rctx, experiments.Config{}, experiments.RunOptions{
		Experiments: []experiments.Experiment{exp},
		Timeout:     firstDuration(job.spec.Timeout, q.opts.JobTimeout),
		Retries:     retries,
		Backoff:     &q.opts.Backoff,
		Retryable:   func(*experiments.Result) bool { return !IsPermanent(lastErr) },
		Journal:     job.jnl,
	})

	var res *experiments.Result
	if len(results) > 0 {
		res = results[0]
	}
	switch {
	case res == nil:
		// RunAll returned before running anything: the queue context was
		// already cancelled (drain deadline expired).
		runSpan.End()
		q.finish(job, StateFailed, "cancelled before start", nil)
	case res.Failed() || body == nil:
		errText := res.Err
		if errText == "" {
			errText = "job produced no result"
		}
		runSpan.SetAttr("err", errText)
		runSpan.End()
		q.finish(job, StateFailed, errText, nil)
	default:
		if q.opts.Store != nil {
			putStart := time.Now()
			err := q.opts.Store.Put(job.key, body)
			runSpan.Record("store-write", putStart, time.Now(),
				trace.String("ok", fmt.Sprint(err == nil)))
			if err != nil {
				// The client still gets its result; only future cache hits
				// are lost. Count it so operators notice a sick disk.
				q.tel.storeErrors.Inc()
				q.log.Warn("result store write failed", "job", job.id, "err", err)
			}
		}
		runSpan.End()
		q.finish(job, StateDone, "", body)
	}
}

// finish settles a job into a terminal state and publishes the metrics
// derived from it.
func (q *Queue) finish(job *Job, state State, errText string, body []byte) {
	job.mu.Lock()
	if job.settling || job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	job.settling = true
	attempts := job.attempts
	finished := time.Now()
	elapsed := finished.Sub(job.created)
	job.mu.Unlock()

	// A drain-rejected job still has its queue-wait span open; End is
	// idempotent, so the normal path (already ended in runJob) is a no-op.
	job.queueWait.End()
	job.root.SetAttr("state", string(state))
	if errText != "" {
		job.root.SetAttr("err", errText)
	}
	job.root.End()
	q.log.Info("job finished", "job", job.id, "span", job.root.ID(),
		"state", string(state), "attempts", attempts,
		"elapsed_s", elapsed.Seconds(), "err", errText)

	// Unpublish the job before waking its waiters: an identical
	// resubmission must go to the result store, not join this finished
	// job.
	q.mu.Lock()
	if q.byKey[job.key] == job {
		delete(q.byKey, job.key)
	}
	q.mu.Unlock()

	switch state {
	case StateDone:
		q.tel.completed.Inc()
	case StateFailed:
		q.tel.failed.Inc()
	case StateRejected:
		q.tel.rejected.Inc()
	}
	if attempts > 1 {
		q.tel.retries.Add(uint64(attempts - 1))
	}
	q.tel.duration.Observe(elapsed.Seconds())

	// The terminal state is published last: a client that reads it from
	// the job's status, or returns from Wait, finds the job's trace, its
	// log line and its metrics already there.
	job.mu.Lock()
	job.state = state
	job.err = errText
	job.result = body
	job.finished = finished
	job.mu.Unlock()

	job.events.Close()
	close(job.done)
}

// DrainSummary reports what a drain did.
type DrainSummary struct {
	// Rejected is how many queued jobs were refused without running.
	Rejected int
	// Forced reports that the deadline expired and in-flight jobs were
	// cancelled rather than allowed to finish.
	Forced bool
}

// Drain shuts the queue down gracefully: stop admitting (Submit returns
// ErrDraining), reject everything still queued with a clear status, and
// give in-flight jobs until the deadline to finish before cancelling
// them. It returns once the workers have exited. Drain is idempotent in
// effect but intended to be called once.
func (q *Queue) Drain(deadline time.Duration) DrainSummary {
	q.mu.Lock()
	alreadyDraining := q.draining
	q.draining = true
	q.mu.Unlock()

	var sum DrainSummary
	// Reject whatever is still queued. Workers race this loop for the
	// remaining jobs; either outcome (ran vs rejected) is sound. On a
	// repeat drain the channel is already closed and yields no jobs.
drain:
	for {
		select {
		case job, ok := <-q.ch:
			if !ok {
				break drain
			}
			q.tel.depth.Add(-1)
			q.finish(job, StateRejected, "server draining", nil)
			sum.Rejected++
		default:
			break drain
		}
	}
	if !alreadyDraining {
		close(q.ch)
	}

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	if deadline > 0 {
		select {
		case <-done:
		case <-time.After(deadline):
			sum.Forced = true
			q.baseCancel()
			<-done
		}
	} else {
		<-done
	}
	q.baseCancel()
	return sum
}

// firstDuration returns the first positive duration.
func firstDuration(ds ...time.Duration) time.Duration {
	for _, d := range ds {
		if d > 0 {
			return d
		}
	}
	return 0
}
