package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Config lists of the svc workloads, in the cachesimd grammar.
var (
	uploadSpecs = []string{"sys=baseline", "sys=improved", "victim=4", "misscache=4", "ways=4"}
	mixedSpecs  = []string{"sys=baseline", "sys=improved", "victim=4", "ways=4"}
)

// daemon is a running cachesimd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	log     *os.File
	hc      *http.Client
	exited  chan struct{}
	waitErr error
	// lastCPU is the daemon's CPU time when a job last ended.
	lastCPU time.Duration
}

// listenAddr returns the address in the daemon's "listening" log line, or
// "" while there is none. A last line without its newline may still be
// being written and is not read.
func listenAddr(log []byte) string {
	log = log[:bytes.LastIndexByte(log, '\n')+1]
	for _, line := range bytes.Split(log, []byte("\n")) {
		if !bytes.Contains(line, []byte("msg=listening")) {
			continue
		}
		for _, f := range strings.Fields(string(line)) {
			if a, ok := strings.CutPrefix(f, "addr="); ok {
				return a
			}
		}
	}
	return ""
}

// startDaemon boots cachesimd on a free port with its result store in dir
// and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, "cachesimd.log"))
	if err != nil {
		return nil, err
	}
	// Retained job records keep their uploaded trace in memory. A single
	// caller, submitting one job at a time, needs only its current job's;
	// keeping 4 holds the daemon's live heap, and so its garbage
	// collections and peak RSS, to what one job needs, whatever the run's
	// length.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-cache-dir", filepath.Join(dir, "store"), "-max-jobs", "4")
	// The daemon writes its log straight to the file. Through a pipe, a
	// goroutine of this process would wake to copy every line while the
	// daemon answers a job, on the CPU they share under a single caller.
	cmd.Stderr = logf
	if err := startProgram(cmd); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf, exited: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	// The port is known once the daemon logs it; the log is read every
	// 2 ms until then.
	timeout := time.After(10 * time.Second)
	for d.base == "" {
		log, err := os.ReadFile(logf.Name())
		if err != nil {
			d.stop()
			return nil, err
		}
		if a := listenAddr(log); a != "" {
			d.base = "http://" + a
			break
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("cachesimd exited during start-up: %v (log in %s)", d.waitErr, logf.Name())
		case <-timeout:
			d.stop()
			return nil, errors.New("cachesimd did not start listening within 10s")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		}
	}
	if err := d.healthy(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: %s", resp.Status)
	}
	return nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.hc.CloseIdleConnections()
	d.log.Close()
}

// resetPeakRSS sets the daemon's peak RSS back to its current RSS.
func (d *daemon) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSS reads the daemon's peak RSS from /proc.
func (d *daemon) peakRSS() (kB int64, err error) {
	pid := d.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpuSince returns the daemon's CPU time, all its threads together, since
// the last call, or since now on the first, to the nanosecond.
func (d *daemon) cpuSince() (time.Duration, error) {
	// The process's CPU-time clock, as clock_getcpuclockid(3) makes it.
	clock := ^int32(d.cmd.Process.Pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("cachesimd CPU time: %v", e)
	}
	now := time.Duration(ts.Nano())
	since := now - d.lastCPU
	if d.lastCPU == 0 {
		since = 0
	}
	d.lastCPU = now
	return since, nil
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	CacheHit bool            `json:"cache_hit"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

// svcTimes breaks one job's latency down by where it went.
type svcTimes struct {
	cacheHit         bool
	submit, fetch    time.Duration
	queueWait, run   time.Duration
	replay, storePut time.Duration
}

func (d *daemon) call(ctx context.Context, method, path string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %v", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

// job submits body and waits for the job to settle: the POST, then,
// unless the result store answered at once, the job's event stream to
// its end and a status read. It checks the job's results against want,
// labelled by specs. The op's CPU time is the daemon's since the last
// job ended, so work the daemon finishes between jobs counts too; its
// peak RSS is the daemon's peak from just before the POST to the end.
// A non-nil tracer gets the op's spans, the daemon's own spans for the
// job among them. Jobs are submitted one at a time.
func (d *daemon) job(ctx context.Context, tr *tracer, k int64, body []byte, specs []string, want []sysNums) (o opStat) {
	t := &svcTimes{}
	if err := d.resetPeakRSS(); err != nil {
		return opStat{seq: k, start: time.Now(), end: time.Now(), err: err}
	}
	o = opStat{seq: k, start: time.Now(), svc: t}
	defer func() {
		var err, rssErr error
		o.cpu, err = d.cpuSince()
		o.rssKB, rssErr = d.peakRSS()
		if err = errors.Join(err, rssErr); err != nil && o.err == nil {
			o.err = err
		}
	}()
	var st jobStatus
	o.err = d.call(ctx, http.MethodPost, "/jobs", body, &st)
	posted := time.Now()
	streamed := posted
	if o.err == nil && st.State != "done" && st.State != "failed" {
		// The event stream ends when the job settles, so reading it to
		// its end waits for the job without polling.
		o.err = d.call(ctx, http.MethodGet, "/jobs/"+st.ID+"/events", nil, nil)
		streamed = time.Now()
		if o.err == nil {
			o.err = d.call(ctx, http.MethodGet, "/jobs/"+st.ID, nil, &st)
		}
	}
	o.end = time.Now()
	t.submit, t.fetch, t.cacheHit = posted.Sub(o.start), o.end.Sub(streamed), st.CacheHit
	if o.err == nil {
		o.err = checkJob(st, specs, want)
	}
	if o.err == nil && !st.CacheHit {
		for _, w := range want {
			o.simAcc += w.I.Accesses + w.D.Accesses
		}
		t.queueWait, t.run = st.Started.Sub(st.Created), st.Finished.Sub(st.Started)
	}
	if tr == nil || o.err != nil {
		return o
	}
	root := tr.add(k, "op", "job", o.start, o.end, -1)
	tr.add(k, "client", "submit", o.start, posted, root)
	if streamed != posted {
		tr.add(k, "client", "events", posted, streamed, root)
	}
	tr.add(k, "client", "fetch", streamed, o.end, root)
	ivs := [][2]time.Time{{o.start, posted}, {streamed, o.end}}
	spans, err := d.serverSpans(ctx, st.ID)
	if err != nil {
		o.err = err
		return o
	}
	for _, s := range spans {
		tr.add(k, "cachesimd", s.Name, s.Start, s.End, root)
		switch s.Name {
		case "queue-wait", "run":
			ivs = append(ivs, [2]time.Time{s.Start, s.End})
		case "replay":
			t.replay += s.End.Sub(s.Start)
		case "store-write":
			t.storePut += s.End.Sub(s.Start)
		}
	}
	o.attributed = covered(o.start, o.end, ivs)
	return o
}

type serverSpan struct {
	Name       string
	Start, End time.Time
}

// serverSpans reads the daemon's span tree for one job.
func (d *daemon) serverSpans(ctx context.Context, id string) ([]serverSpan, error) {
	var resp struct {
		Traces []struct {
			Spans []serverSpan `json:"spans"`
		} `json:"traces"`
	}
	if err := d.call(ctx, http.MethodGet, "/debug/traces?id="+id, nil, &resp); err != nil {
		return nil, err
	}
	if len(resp.Traces) != 1 {
		return nil, fmt.Errorf("/debug/traces?id=%s: %d traces", id, len(resp.Traces))
	}
	return resp.Traces[0].Spans, nil
}

// checkJob compares a settled job's results with the reference, exactly.
func checkJob(st jobStatus, specs []string, want []sysNums) error {
	if st.State != "done" {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	var body struct {
		Configs []struct {
			Label   string  `json:"label"`
			Results sysNums `json:"results"`
		} `json:"configs"`
	}
	if err := json.Unmarshal(st.Result, &body); err != nil {
		return fmt.Errorf("job %s result: %v", st.ID, err)
	}
	if len(body.Configs) != len(specs) {
		return fmt.Errorf("job %s: %d configs, want %d", st.ID, len(body.Configs), len(specs))
	}
	for i, c := range body.Configs {
		if c.Label != specs[i] || !c.Results.same(want[i]) {
			return fmt.Errorf("job %s config %q: got %+v, reference %q %+v", st.ID, c.Label, c.Results, specs[i], want[i])
		}
	}
	return nil
}

// svcFixture is a booted daemon with the inputs and reference results
// of one svc workload.
type svcFixture struct {
	d       *daemon
	seed    uint64
	up      *upload
	upWant  []sysNums
	benWant map[string][]sysNums
	seq     atomic.Int64
	bufs    sync.Pool
}

// prepareUpload makes svc-upload's base trace from the seed, computes its
// reference results, and boots the daemon.
func prepareUpload(ctx context.Context, e *env, dir string) (*fixture, error) {
	refs := genTrace(e.seed, streamUpload, e.sz.uploadRecords)
	s := &svcFixture{seed: e.seed, up: newUpload(refs, strings.Join(uploadSpecs, ";"))}
	for _, spec := range uploadSpecs {
		r, err := replaySystem(spec, refs)
		if err != nil {
			return nil, err
		}
		s.upWant = append(s.upWant, r)
	}
	d, err := startDaemon(ctx, filepath.Join(e.bin, "cachesimd"), dir)
	if err != nil {
		return nil, err
	}
	s.d = d
	return s.fixture(s.uploadOp, digest(s.up.din(nil, 1)), s.upWant), nil
}

// prepareMixed computes the reference results of svc-mixed's built-in
// workload jobs, boots the daemon, and pre-warms its store with the jobs
// svc-mixed resubmits.
func prepareMixed(ctx context.Context, e *env, dir string) (*fixture, error) {
	s := &svcFixture{seed: e.seed, benWant: map[string][]sysNums{}}
	for _, b := range mixedBenchmarks {
		for _, spec := range mixedSpecs {
			r, err := runBenchmark(b, mixedScale, spec)
			if err != nil {
				return nil, err
			}
			s.benWant[b] = append(s.benWant[b], r)
		}
	}
	d, err := startDaemon(ctx, filepath.Join(e.bin, "cachesimd"), dir)
	if err != nil {
		return nil, err
	}
	s.d = d
	// One job at a time: the daemon keeps only a few finished jobs'
	// records (see startDaemon), and a job's caller must read its status
	// before it is dropped.
	for p := range mixedPrewarm {
		if o := s.benchOp(ctx, nil, s.seq.Add(1), prewarmJob(e.seed, p)); o.err != nil {
			d.stop()
			return nil, fmt.Errorf("pre-warming the store: %w", o.err)
		}
	}
	return s.fixture(s.mixedOp, mixedDigest(e.seed), s.benWant), nil
}

// uploadOp submits a fresh variant of the upload trace.
func (s *svcFixture) uploadOp(ctx context.Context, tr *tracer) opStat {
	k := s.seq.Add(1)
	b, _ := s.bufs.Get().(*[2][]byte)
	if b == nil {
		b = new([2][]byte)
	}
	defer s.bufs.Put(b)
	b[0], b[1] = s.up.body(b[0], b[1], uint64(k))
	return s.d.job(ctx, tr, k, b[0], uploadSpecs, s.upWant)
}

// benchOp submits built-in workload job j as op k.
func (s *svcFixture) benchOp(ctx context.Context, tr *tracer, k int64, j benchJob) opStat {
	body, err := json.Marshal(struct {
		Benchmark string  `json:"benchmark"`
		Scale     float64 `json:"scale"`
		Configs   string  `json:"configs"`
	}{j.bench, j.scale(), strings.Join(mixedSpecs, ";")})
	if err != nil {
		return opStat{start: time.Now(), end: time.Now(), err: err}
	}
	return s.d.job(ctx, tr, k, body, mixedSpecs, s.benWant[j.bench])
}

// mixedOp runs the next op of svc-mixed's seeded schedule.
func (s *svcFixture) mixedOp(ctx context.Context, tr *tracer) opStat {
	k := s.seq.Add(1)
	j, _ := mixedOp(s.seed, uint64(k))
	return s.benchOp(ctx, tr, k, j)
}

// fixture exposes the svc fixture as a workload running op.
func (s *svcFixture) fixture(op func(context.Context, *tracer) opStat, inputDigest string, ref any) *fixture {
	return &fixture{op: op, daemon: s.d, inputDigest: inputDigest, resultDigest: resultsDigest(ref),
		close: s.d.stop}
}

// svcLayer sets the svc.* per-layer metrics from traced jobs: the client's
// submit and final fetch, the queue wait (Started−Created) and run
// (Finished−Started) the daemon reports, and its replay and store-write
// spans, over the jobs the store did not answer at submit.
func svcLayer(jobs []opStat, m metrics) {
	var submit, fetch, wait, run, replay, put []float64
	hits, done := 0, 0
	for _, o := range jobs {
		if o.err != nil || o.svc == nil {
			continue
		}
		done++
		t := o.svc
		submit = append(submit, o.refMS(t.submit))
		if t.cacheHit {
			hits++
			continue
		}
		fetch = append(fetch, o.refMS(t.fetch))
		wait = append(wait, o.refMS(t.queueWait))
		run = append(run, o.refMS(t.run))
		replay = append(replay, o.refMS(t.replay))
		put = append(put, o.refMS(t.storePut))
	}
	m.set("svc.submit_ms", median(submit), "ms")
	m.set("svc.queue_wait_ms_p50", median(wait), "ms")
	m.set("svc.queue_wait_ms_p90", percentile(wait, 90), "ms")
	m.set("svc.run_ms", median(run), "ms")
	m.set("svc.replay_ms", median(replay), "ms")
	m.set("svc.store_write_ms", median(put), "ms")
	m.set("svc.fetch_ms", median(fetch), "ms")
	m.set("svc.cache_hit_ratio", float64(hits)/float64(max(done, 1)), "fraction")
	if maxPercentile(len(wait)) < 90 {
		fmt.Fprintf(os.Stderr, "bench: svc queue-wait p90 rests on %d jobs, fewer than 10 beyond it\n", len(wait))
	}
}
