package sim

import (
	"fmt"
	"os"

	"jouppi/internal/memtrace"
)

// AccessKind identifies the type of a memory reference delivered to a
// TraceVisitor.
type AccessKind uint8

// The access kinds, matching the trace formats' labels.
const (
	Ifetch AccessKind = iota
	Load
	Store
)

// String returns the kind name.
func (k AccessKind) String() string {
	switch k {
	case Ifetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// TraceVisitor receives one memory reference at a time.
type TraceVisitor func(kind AccessKind, addr uint64)

func toKind(k memtrace.Kind) AccessKind {
	switch k {
	case memtrace.Load:
		return Load
	case memtrace.Store:
		return Store
	default:
		return Ifetch
	}
}

// VisitBenchmark generates the named workload at the given scale and
// streams every reference to visit, without materializing the trace. Use
// it to drive custom simulators or exporters off the paper's workloads.
func VisitBenchmark(name string, scale float64, visit TraceVisitor) error {
	src, err := Benchmark(name, scale)
	if err != nil {
		return err
	}
	src.bench.Generate(scale, memtrace.SinkFunc(func(a memtrace.Access) {
		visit(toKind(a.Kind), uint64(a.Addr))
	}))
	return nil
}

// WriteTraceFile generates the named workload and writes its trace to
// path. format is "jtr" (compact binary) or "din" (dinero text). It
// returns the number of records written. Every argument is checked
// before path is created, so a rejected call leaves an existing file
// untouched.
func WriteTraceFile(name string, scale float64, path, format string) (uint64, error) {
	src, err := Benchmark(name, scale)
	if err != nil {
		return 0, err
	}
	if err := checkFormat(format); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var w interface {
		memtrace.Sink
		Close() error
		Count() uint64
	}
	if format == "din" {
		w = memtrace.NewDineroWriter(f)
	} else if w, err = memtrace.NewStreamWriter(f); err != nil {
		return 0, err
	}
	src.bench.Generate(scale, w)
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Count(), f.Close()
}
