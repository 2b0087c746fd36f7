package main

import (
	"debug/buildinfo"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was written on is a shared 2-vCPU VM. How fast
// a CPU runs drifts by ±15% and more as neighbours come and go, and
// whether the two vCPUs get one host core or two changes from minute to
// minute. The benchmark therefore runs the programs under test on CPUs
// apart from its own, drives them from there with a single caller that
// waits while they work (see closedLoop), and times a fixed reference
// program, the gauge, before every op to report times at a reference
// speed.

// cpuSet is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]>>(cpu%64)&1 == 1 }

// list is the set's CPUs in increasing order.
func (s *cpuSet) list() []int {
	var out []int
	for cpu := range len(s) * 64 {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

// getAffinity returns the CPUs thread tid, 0 for the calling thread, may
// run on.
func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %v", e)
	}
	return s, nil
}

// setAffinity restricts thread tid, 0 for the calling thread, to s.
func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

// benchCPUs holds the benchmark's own threads; programCPUs the programs
// under test, and the gauge that measures their speed. Both
// are set once, by pinCPUs, before any program starts; empty sets leave
// every thread where the system puts it.
var benchCPUs, programCPUs cpuSet

// pinCPUs keeps the last CPU this process may run on for the benchmark
// and gives the programs under test the others, or shares the one CPU
// when there is only one. It moves every thread of this process to the
// benchmark's CPU; threads started later inherit it.
func pinCPUs() error {
	all, err := getAffinity(0)
	if err != nil {
		return err
	}
	cpus := all.list()
	if len(cpus) == 0 {
		return fmt.Errorf("no CPU in the affinity mask")
	}
	last := cpus[len(cpus)-1]
	benchCPUs, programCPUs = cpuSet{}, cpuSet{}
	benchCPUs.add(last)
	for _, cpu := range cpus[:max(len(cpus)-1, 1)] {
		programCPUs.add(cpu)
	}
	return moveProcess(benchCPUs)
}

// moveProcess moves every thread of this process to set.
func moveProcess(set cpuSet) error {
	// A thread the runtime starts during the first pass copies the mask
	// of its parent, which may not be moved yet; the second pass gets it.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, &set); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %v", err)
			}
		}
	}
	return nil
}

// onProgramCPUs runs fn on a thread moved to the programs' CPUs, or, with
// first, to the first of them alone, and then moves the thread back. A
// process fn starts forks from that thread and so inherits the programs'
// CPUs.
func onProgramCPUs(first bool, fn func() error) error {
	cpus := programCPUs.list()
	if len(cpus) == 0 {
		return fn()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	prev, err := getAffinity(0)
	if err != nil {
		return err
	}
	set := programCPUs
	if first {
		set = cpuSet{}
		set.add(cpus[0])
	}
	if err := setAffinity(0, &set); err != nil {
		return fmt.Errorf("sched_setaffinity: %v", err)
	}
	// Moving back cannot fail: this process may run on the CPUs it left.
	defer setAffinity(0, &prev)
	return fn()
}

// withProcessOnProgramCPU runs fn with every thread of this process on
// the programs' first CPU, and then moves them back to the benchmark's.
func withProcessOnProgramCPU(fn func() error) error {
	cpus := programCPUs.list()
	if len(cpus) == 0 {
		return fn()
	}
	var set cpuSet
	set.add(cpus[0])
	if err := moveProcess(set); err != nil {
		return err
	}
	err := fn()
	return errors.Join(err, moveProcess(benchCPUs))
}

// startProgram starts cmd on the programs' CPUs.
func startProgram(cmd *exec.Cmd) error { return onProgramCPUs(false, cmd.Start) }

// gaugeRef is the gauge's time from exec to exit at reference speed:
// about its time on the 2.1 GHz Xeon host this benchmark was calibrated
// on, in the spells when no neighbour slows it.
const gaugeRef = 8 * time.Millisecond

// gauge runs the gauge program (gauge/main.go) on the programs' CPUs. It
// is started once, by startGauge, before any op is measured.
var gauge struct {
	sp  *spawner
	bin string
}

func startGauge(bin string) error {
	sp, err := startSpawner(bin)
	if err != nil {
		return err
	}
	gauge.sp, gauge.bin = sp, filepath.Join(bin, "gauge")
	return nil
}

func stopGauge() {
	if gauge.sp != nil {
		gauge.sp.close()
		gauge.sp = nil
	}
}

// hostSpeed runs the gauge and returns the speed of the programs' CPUs
// relative to the reference: gaugeRef over the gauge's time now. refWall
// and refCPU turn a time measured at that speed into one at reference
// speed.
func hostSpeed() (float64, error) {
	r, err := gauge.sp.run(gauge.bin)
	if err != nil {
		return 0, err
	}
	return float64(gaugeRef) / float64(max(r.End.Sub(r.Start), time.Microsecond)), nil
}

// The host's slow spells slow the programs more than they slow the
// gauge. Over 50 runs of every workload, at gauge speeds from 0.6 to 1.0,
// the log of an op's wall-clock time rose about 1.2 times as fast as the
// log of the gauge's time, and the log of its CPU time, which leaves out
// the time the host takes the CPU away, about 1.1 times. Scaled by the
// speed alone, the medians of sets of runs an hour apart still differed
// by 7 to 10%; scaled by the speed to these powers, by at most 4% (6% for
// svc-upload's CPU time).
const wallExp, cpuExp = 1.2, 1.1

// refWall is a wall-clock time d, measured at host speed s, at reference
// speed.
func refWall(d time.Duration, s float64) time.Duration {
	return time.Duration(float64(d) * math.Pow(s, wallExp))
}

// refCPU is a CPU time d, measured at host speed s, at reference speed.
func refCPU(d time.Duration, s float64) time.Duration {
	return time.Duration(float64(d) * math.Pow(s, cpuExp))
}

// host records where and on what build a result was measured.
type host struct {
	NProc int `json:"nproc"`
	// BenchCPUs ran the benchmark between measurements; ProgramCPUs the
	// programs under test, the gauge, and the benchmark's caller while it
	// measured.
	BenchCPUs   string `json:"bench_cpus"`
	ProgramCPUs string `json:"program_cpus"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Dirty       bool   `json:"dirty"`
	// GOMAXPROCS is what the programs ran with.
	GOMAXPROCS int `json:"gomaxprocs"`
}

func cpuList(s *cpuSet) string {
	var out []string
	for _, cpu := range s.list() {
		out = append(out, strconv.Itoa(cpu))
	}
	return strings.Join(out, ",")
}

func hostInfo(bin string) host {
	// Go sizes GOMAXPROCS from the CPUs a program may use, unless the
	// environment says otherwise.
	gmp, err := strconv.Atoi(os.Getenv("GOMAXPROCS"))
	if err != nil || gmp < 1 {
		gmp = len(programCPUs.list())
	}
	h := host{NProc: runtime.NumCPU(), BenchCPUs: cpuList(&benchCPUs), ProgramCPUs: cpuList(&programCPUs),
		GOMAXPROCS: gmp, GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, err := buildinfo.ReadFile(filepath.Join(bin, "cachesim")); err == nil {
		h.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}
