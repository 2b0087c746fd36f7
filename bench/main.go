// Command bench is the repository's benchmark. It builds cachesim and
// cachesimd from the checkout, drives them from outside on inputs made
// from a seed, checks every output against an in-process reference
// replay, and prints each metric by name with its unit. The last line of
// its output is one JSON object with the keys correct, attempted, failed
// and metrics.
//
// From the root of a checkout:
//
//	bash bench/run.sh --workload cli-din --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1                       # all four workloads
//	bash bench/run.sh --compare a.jsonl b.jsonl      # two sets of -out runs
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// sizes scales the work of a run. Only the self-tests shrink it.
type sizes struct {
	// Records in the cli-din, cli-sweep and svc-upload traces.
	dinRecords, sweepRecords, uploadRecords int
	// setups is how many times a run sets up; setup_s is the median.
	setups int
	// reps is how often the traced run repeats each in-process layer
	// call; sample is how many processes it times per process rung.
	// Medians are reported.
	reps, sample int
	// svcRun is how long the traced run of a cli workload, which sends
	// no jobs, drives svc-mixed's jobs to measure the service layer.
	svcRun time.Duration
}

// fullSizes keep ops short enough on one CPU that a 25 s phase, with the
// gauge run before every op, measures at least 300 of each workload's at
// the host speeds seen here (0.7 and up), so the traced run's p95 has ten
// samples beyond it.
var fullSizes = sizes{
	dinRecords: 400_000, sweepRecords: 400_000, uploadRecords: 100_000,
	setups: 9, reps: 9, sample: 21, svcRun: 4 * time.Second,
}

// env is where a run works: the checkout, a scratch directory inside
// it, the built programs, and the seed.
type env struct {
	root, work, bin string
	seed            uint64
	sz              sizes
}

type workload struct {
	name    string
	prepare func(ctx context.Context, e *env, dir string) (*fixture, error)
}

var workloads = []workload{
	{"cli-din", func(_ context.Context, e *env, dir string) (*fixture, error) {
		return prepareCLI(e, dir, false)
	}},
	{"cli-sweep", func(_ context.Context, e *env, dir string) (*fixture, error) {
		return prepareCLI(e, dir, true)
	}},
	{"svc-upload", prepareUpload},
	{"svc-mixed", prepareMixed},
}

// record is one run of one workload, as -out appends it and -compare
// reads it.
type record struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Ops is the sample count behind the op latency percentiles.
	Ops int `json:"ops"`
	// Metrics are at reference speed; Raw holds the times as the clock
	// read them and Speed the host's mean speed over the run.
	Metrics      metrics  `json:"metrics"`
	Raw          metrics  `json:"raw,omitempty"`
	Speed        float64  `json:"speed"`
	Host         host     `json:"host"`
	InputDigest  string   `json:"input_digest"`
	ResultDigest string   `json:"result_digest"`
	Errors       []string `json:"errors,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: cli-din, cli-sweep, svc-upload, svc-mixed, or all")
		seed    = fs.Uint64("seed", 1, "seed the inputs are made from")
		seconds = fs.Float64("seconds", 25, "length of each measured phase in seconds")
		trace   = fs.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics")
		out     = fs.String("out", "", "append each run's full record, host and provenance included, to this JSON-lines file")
		spans   = fs.String("spans", "", "with -trace 1, write the spans here (default .bench_build/spans-<workload>-<seed>.json)")
		compare = fs.Bool("compare", false, "compare two -out files: bench -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files of results")
			return 2
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: bad -workload %q, -trace %d or -seconds %g\n", *name, *trace, *seconds)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{root: root, bin: filepath.Join(root, ".bench_build", "bin"), seed: *seed, sz: fullSizes}
	if err := build(ctx, root, e.bin); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build", "work"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if e.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build", "work"), "run-"); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := pinCPUs(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := startGauge(e.bin); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer stopGauge()
	h := hostInfo(e.bin)
	fmt.Fprintf(stdout, "host: %d CPUs, programs on CPU %s, benchmark on CPU %s, %s, commit %s (dirty %t), seed %d, %gs per run\n",
		h.NProc, h.ProgramCPUs, h.BenchCPUs, h.GoVersion, h.Commit, h.Dirty, *seed, *seconds)

	sum := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for _, w := range chosen {
		spansPath := *spans
		if spansPath == "" {
			spansPath = filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		}
		rec, err := runWorkload(ctx, e, w, time.Duration(*seconds*float64(time.Second)), *trace == 1, spansPath)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v (work files kept in %s)\n", w.name, err, e.work)
			return 1
		}
		rec.Host = h
		printRecord(stdout, rec)
		for _, msg := range rec.Errors {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, msg)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		sum.Correct = sum.Correct && rec.Correct
		sum.Attempted += rec.Attempted
		sum.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(chosen) > 1 {
				k = w.name + "." + k
			}
			sum.Metrics[k] = v
		}
	}
	if sum.Correct {
		os.RemoveAll(e.work)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// findRoot finds the checkout: the nearest directory at or above the
// working directory whose go.mod declares module jouppi.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module jouppi\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a checkout of module jouppi: run from the root of the repository")
		}
		dir = parent
	}
}

// build compiles the programs under test from the checkout's source,
// and the benchmark's spawner, into bin.
func build(ctx context.Context, root, bin string) error {
	for _, b := range []struct{ dir, pkgs string }{
		{root, "./cmd/cachesim ./cmd/cachesimd"},
		{filepath.Join(root, "bench"), "./spawner ./gauge"},
	} {
		cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", bin + string(filepath.Separator)}, strings.Fields(b.pkgs)...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %s: %v\n%s", b.pkgs, err, out)
		}
	}
	return nil
}

// runWorkload sets the workload up e.sz.setups times, keeping the last
// set-up, then measures it for d: its end-to-end metrics, or with traced
// the per-layer metrics of the traced run.
func runWorkload(ctx context.Context, e *env, w workload, d time.Duration, traced bool, spansPath string) (*record, error) {
	rec := &record{Workload: w.name, Seed: e.seed, Seconds: d.Seconds(), Trace: traced, Metrics: metrics{}}
	setups := e.sz.setups
	if traced {
		setups = 1
	}
	var (
		fx    *fixture
		times []float64
	)
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	// Set-ups run with the whole process on the programs' CPU, whose
	// speed the gauge measures.
	err := withProcessOnProgramCPU(func() error {
		for i := range setups {
			if fx != nil {
				fx.close()
				fx = nil
			}
			dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", w.name, i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			speed, err := hostSpeed()
			if err != nil {
				return err
			}
			start := time.Now()
			if fx, err = w.prepare(ctx, e, dir); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if o := fx.op(ctx, nil); o.err != nil {
				return fmt.Errorf("warm-up op: %w", o.err)
			}
			times = append(times, refWall(time.Since(start), speed).Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.InputDigest, rec.ResultDigest = fx.inputDigest, fx.resultDigest
	var errs []error
	if e.sz == fullSizes {
		if err := checkGolden(e.seed, w.name, fx.resultDigest); err != nil {
			errs = append(errs, err)
		}
	}

	var ops []opStat
	if traced {
		ops, err = tracedRun(ctx, e, w, fx, d, rec.Metrics, spansPath)
	} else {
		ops, err = measure(ctx, w, fx, d, times, rec)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rec.Attempted = len(ops)
	for _, o := range ops {
		if o.err == nil {
			rec.Ops++
			continue
		}
		rec.Failed++
		errs = append(errs, o.err)
	}
	for _, err := range errs[:min(len(errs), 5)] {
		rec.Errors = append(rec.Errors, err.Error())
	}
	rec.Correct = len(errs) == 0 && rec.Attempted > 0
	return rec, nil
}

// measure runs the closed loop untraced and sets the end-to-end metrics:
// in rec.Metrics at reference speed, in rec.Raw as the clock read them.
func measure(ctx context.Context, w workload, fx *fixture, d time.Duration, setups []float64, rec *record) ([]opStat, error) {
	ops, speed, err := closedLoop(ctx, d, nil, fx.op)
	if err != nil {
		return nil, err
	}
	var (
		rss         []float64
		cpu, rawCPU float64
	)
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		rss = append(rss, float64(o.rssKB))
		cpu += o.refCPUMS()
		rawCPU += ms(o.cpu)
	}
	// A process's peak RSS swings with where its garbage collections
	// fall; the mean over the ops is steadier than their median, and
	// than the daemon's peak over the whole run.
	peakKB := mean(rss)
	n := float64(max(len(rss), 1))
	set := func(m metrics, cpu float64, latency func(opStat) float64) {
		var lat []float64
		for _, o := range ops {
			if o.err == nil {
				lat = append(lat, latency(o))
			}
		}
		opsPerS, accPerS := throughput(ops, latency)
		m.set("op_p50_ms", percentile(lat, 50), "ms")
		m.set("ops_s", opsPerS, "1/s")
		m.set("sim_macc_s", accPerS/1e6, "Macc/s")
		m.set("cpu_ms_per_op", cpu/n, "ms")
		m.set("peak_rss_mb", peakKB/1024, "MiB")
	}
	rec.Raw, rec.Speed = metrics{}, speed
	set(rec.Metrics, cpu, func(o opStat) float64 { return o.refMS(o.wall()) })
	set(rec.Raw, rawCPU, func(o opStat) float64 { return ms(o.wall()) })
	rec.Metrics.set("setup_s", median(setups), "s")
	return ops, nil
}

// blockOps is how many consecutive ops throughput is measured over at a
// time. svc-mixed repeats its mix every mixedBlock ops, so each of its
// blocks does the same work; the other workloads' ops all do.
const blockOps = mixedBlock

// throughput is what the closed loop's caller sustains while its ops are
// in flight: ops ÷ their summed latency in milliseconds, and the same for
// simulated accesses. Time the caller spends between ops, in its own work
// and the gauge, does not count. It is taken over each block of blockOps
// ops by sequence number, and the medians over the blocks are returned,
// so a slow spell in part of a run moves it little. A run too short for
// one whole block is taken as one block.
func throughput(ops []opStat, latency func(opStat) float64) (opsPerS, accPerS float64) {
	type block struct {
		n     int
		acc   uint64
		sumMS float64
	}
	blocks := map[int64]*block{}
	whole := &block{}
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		b := blocks[o.seq/blockOps]
		if b == nil {
			b = &block{}
			blocks[o.seq/blockOps] = b
		}
		for _, b := range []*block{b, whole} {
			b.n++
			b.acc += o.simAcc
			b.sumMS += latency(o)
		}
	}
	var rates, accRates []float64
	for _, b := range blocks {
		if b.n == blockOps {
			rates = append(rates, float64(b.n)*1e3/b.sumMS)
			accRates = append(accRates, float64(b.acc)*1e3/b.sumMS)
		}
	}
	if len(rates) == 0 && whole.n > 0 {
		rates = append(rates, float64(whole.n)*1e3/whole.sumMS)
		accRates = append(accRates, float64(whole.acc)*1e3/whole.sumMS)
	}
	return median(rates), median(accRates)
}

// tracedRun makes the per-layer measurements: the layer ladder, then the
// workload's closed loop with every op traced. It sets the per-layer
// metrics and writes every span to spansPath.
func tracedRun(ctx context.Context, e *env, w workload, fx *fixture, d time.Duration, m metrics, spansPath string) ([]opStat, error) {
	tr := newTracer(w.name)
	l, err := runLadder(ctx, e, tr)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, l.m)
	ops, _, err := closedLoop(ctx, d, tr, fx.op)
	if err != nil {
		return nil, err
	}
	var (
		wall, attributed []float64
		wallSum, attrSum float64
	)
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		t, a := o.refMS(o.wall()), o.refMS(o.attributed)
		if fx.daemon == nil {
			// cachesim cannot be seen into from outside: its op is
			// modelled by the ladder's start-up, decode and simulation
			// times, not measured.
			a = ms(l.opModel(w.name))
		}
		wall = append(wall, t)
		attributed = append(attributed, a)
		wallSum += t
		attrSum += a
	}
	m.set("trace.op_p50_ms", median(wall), "ms")
	m.set("trace.op_p95_ms", percentile(wall, 95), "ms")
	if maxPercentile(len(wall)) < 95 {
		fmt.Fprintf(os.Stderr, "bench: %s: trace.op_p95_ms rests on %d ops, fewer than 10 beyond it\n", w.name, len(wall))
	}
	m.set("trace.attributed_ms", median(attributed), "ms")
	m.set("trace.unattributed_pct", 100*(wallSum-attrSum)/wallSum, "%")

	jobs := ops
	if fx.daemon == nil {
		// Every traced run reports every per-layer metric. A cli
		// workload sends no jobs, so the service layer is measured on
		// svc-mixed's, which reach both its store and its workers.
		if jobs, err = svcMixedJobs(ctx, e, tr); err != nil {
			return nil, err
		}
		ops = append(ops, jobs...)
	}
	svcLayer(jobs, m)
	return ops, tr.write(spansPath)
}

// svcMixedJobs sets svc-mixed up and runs its closed loop, traced, for
// e.sz.svcRun.
func svcMixedJobs(ctx context.Context, e *env, tr *tracer) ([]opStat, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == "svc-mixed" })
	w := workloads[i]
	dir := filepath.Join(e.work, "svc-layer")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx, err := w.prepare(ctx, e, dir)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer fx.close()
	ops, _, err := closedLoop(ctx, e.sz.svcRun, tr.as(w.name), fx.op)
	return ops, err
}

func printRecord(w io.Writer, r *record) {
	fmt.Fprintf(w, "%-10s  ops %d (%d attempted, %d failed), inputs %.16s…, results %.16s…\n",
		r.Workload, r.Ops, r.Attempted, r.Failed, r.InputDigest, r.ResultDigest)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-10s  %-36s %14.4f %s\n", r.Workload, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

func appendRecord(path string, r *record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
