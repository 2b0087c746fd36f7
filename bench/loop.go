package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// opStat is one operation of a closed loop.
type opStat struct {
	// seq numbers the workload's ops in the order they were started.
	seq        int64
	start, end time.Time
	// err is nil when the op succeeded and its output matched the
	// reference.
	err error
	// cpu and rssKB are the program's CPU time and peak RSS over the op.
	cpu   time.Duration
	rssKB int64
	// simAcc counts the config-accesses the op simulated: references
	// replayed times configurations, nothing for a store hit.
	simAcc uint64
	// attributed is the part of a traced op's wall time covered by the
	// spans of the layers it passed through.
	attributed time.Duration
	// speed is the host's speed when the op ran (see hostSpeed).
	speed float64
	// svc breaks a daemon job's latency down; nil for other ops.
	svc *svcTimes
}

func (o opStat) wall() time.Duration { return o.end.Sub(o.start) }

// refMS is a wall-clock time d, measured during the op, in milliseconds
// at reference speed.
func (o opStat) refMS(d time.Duration) float64 { return ms(refWall(d, o.speed)) }

// refCPUMS is the op's CPU time in milliseconds at reference speed.
func (o opStat) refCPUMS() float64 { return ms(refCPU(o.cpu, o.speed)) }

// fixture is a workload made ready to run: inputs written, programs
// started, reference results computed.
type fixture struct {
	// op runs one operation; a non-nil tracer records its spans.
	op func(ctx context.Context, tr *tracer) opStat
	// daemon is the measured program when it is a long-running server.
	daemon      *daemon
	inputDigest string
	// resultDigest identifies the reference results the ops are checked
	// against.
	resultDigest string
	// refs is a cli workload's generated trace and path its file; the
	// traced run replays them through single layers.
	refs  []access
	path  string
	close func()
}

// closedLoop runs op from a single caller, which starts the next op when
// the previous one returns, until d has passed. Before each op it runs
// the gauge to measure the host's speed. It returns every op and the
// mean host speed.
//
// The caller runs on the programs' CPU, with this process's garbage
// collector paused. It never works while its op is in flight, so it
// takes nothing from the op, and the op's requests and replies never
// wait for the benchmark's own CPU, whose speed nothing measures: with a
// busy loop on that CPU, svc-mixed's median op took 16% longer and
// cli-din's ops_s fell by 15% when the caller ran there. Nothing else
// runs while the gauge does, so its time is the host's alone.
func closedLoop(ctx context.Context, d time.Duration, tr *tracer, op func(ctx context.Context, tr *tracer) opStat) ([]opStat, float64, error) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	// The limit keeps memory bounded in a run of any length; a run of the
	// length BENCHMARK.json sets allocates a small part of it.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(m.HeapAlloc) + 256<<20))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var (
		ops []opStat
		sum float64
	)
	err := withProcessOnProgramCPU(func() error {
		deadline := time.Now().Add(d)
		for ctx.Err() == nil && time.Now().Before(deadline) {
			speed, err := hostSpeed()
			if err != nil {
				return err
			}
			o := op(ctx, tr)
			o.speed = speed
			ops = append(ops, o)
			sum += speed
		}
		return nil
	})
	return ops, sum / float64(max(len(ops), 1)), err
}

// span is one timed interval of the traced run: an op, or a call into one
// layer within an op or a ladder rung.
type span struct {
	Workload string `json:"workload"`
	// Op is the op's sequence number, or -1 for a ladder rung.
	Op    int64  `json:"op"`
	Layer string `json:"layer"`
	Name  string `json:"name"`
	// StartNS and EndNS count from the start of the run.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Parent indexes the enclosing span, -1 for none.
	Parent int `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0       time.Time
	workload string
	log      *spanLog
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, log: &spanLog{}}
}

// as is a tracer that records into t's spans under another workload's
// name.
func (t *tracer) as(workload string) *tracer { return &tracer{t.t0, workload, t.log} }

// add records a span and returns its index for children to name as
// parent.
func (t *tracer) add(op int64, layer, name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	t.log.spans = append(t.log.spans, span{t.workload, op, layer, name,
		start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent})
	return len(t.log.spans) - 1
}

// timed runs fn as a ladder rung's call into layer, on the CPU the
// programs run on, and returns how long it took at reference speed. A
// garbage collection first keeps the benchmark's own collector from
// running beside the call.
func (t *tracer) timed(layer, name string, fn func() error) (time.Duration, error) {
	runtime.GC()
	speed, err := hostSpeed()
	if err != nil {
		return 0, err
	}
	var start, end time.Time
	err = onProgramCPUs(true, func() error {
		start = time.Now()
		err := fn()
		end = time.Now()
		return err
	})
	t.add(-1, layer, name, start, end, -1)
	return refWall(end.Sub(start), speed), err
}

func (t *tracer) write(path string) error {
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	data, err := json.Marshal(t.log.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// covered is how much of [from, to] the intervals cover.
func covered(from, to time.Time, ivs [][2]time.Time) time.Duration {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]time.Time) int { return a[0].Compare(b[0]) })
	var total time.Duration
	cur := from
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}
