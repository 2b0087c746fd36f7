// Command tracegen generates a benchmark's memory-reference trace into a
// trace file — the compact binary format ("JTR1", see internal/memtrace)
// or classic dinero "din" text — for use with cachesim, tracestat, or
// external tools.
//
// Usage:
//
//	tracegen -bench linpack -scale 0.5 -o linpack.jtr
//	tracegen -bench liver -format din -o liver.din
//	tracegen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"jouppi/internal/version"
	"jouppi/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list   = fs.Bool("list", false, "list available benchmarks and exit")
		bench  = fs.String("bench", "", "benchmark name")
		scale  = fs.Float64("scale", 0.25, "workload scale")
		out    = fs.String("o", "", "output file (required)")
		format = fs.String("format", "jtr", "output format: jtr (binary) | din (dinero text)")
		ver    = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *ver {
		fmt.Fprintln(stdout, version.String("tracegen"))
		return 0
	}

	if *list {
		for _, name := range sim.Benchmarks() {
			desc, _ := sim.BenchmarkDescription(name)
			fmt.Fprintf(stdout, "  %-10s %s\n", name, desc)
		}
		return 0
	}
	if *bench == "" || *out == "" {
		fmt.Fprintln(stderr, "tracegen: -bench and -o are required; see -list")
		return 2
	}
	if _, err := sim.Benchmark(*bench, *scale); err != nil {
		fmt.Fprintf(stderr, "tracegen: %v; see -list\n", err)
		return 2
	}
	count, err := sim.WriteTraceFile(*bench, *scale, *out, *format)
	if errors.Is(err, sim.ErrUnknownFormat) {
		fmt.Fprintln(stderr, "tracegen: -format must be jtr or din")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "tracegen: wrote %d accesses to %s (%s)\n", count, *out, *format)
	return 0
}
