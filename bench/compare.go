package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &b, nil
}

// readRecords reads a file of -out records, keeping the untraced runs.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// comparison sets one metric's runs on side B (the change) against side
// A (the parent), following the no-regression rule: B's median may be
// worse than A's by at most the bound. Where A's own spread, the distance
// between its quartiles, is wider than the bound, the metric is
// unresolved, unless every run of B is better than every run of A, or
// worse than every run of A by more than the bound.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	// wins counts pairs (run i of A, run i of B) in which B is better.
	wins, pairs int
	// worse is how much worse B's median is than A's, as a share of A's;
	// negative when B is better.
	worse   float64
	verdict string
}

func compareMetric(a, b []float64, better string, bound float64) comparison {
	var c comparison
	c.medA, c.medB = median(a), median(b)
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	sign := 1.0 // lower is better
	if better == "higher" {
		sign = -1
	}
	c.worse = sign * (c.medB - c.medA) / math.Abs(c.medA)
	c.pairs = min(len(a), len(b))
	for i := range c.pairs {
		if sign*(b[i]-a[i]) < 0 {
			c.wins++
		}
	}
	bestB, worstB := slices.Min(b), slices.Max(b)
	bestA, worstA := slices.Min(a), slices.Max(a)
	if sign < 0 {
		bestB, worstB, bestA, worstA = worstB, bestB, worstA, bestA
	}
	allBetter := sign*(worstB-bestA) < 0
	allWorse := sign*(bestB-worstA) > bound*math.Abs(worstA)
	spread := (c.q3A - c.q1A) / math.Abs(c.medA)
	switch {
	case spread > bound && allBetter:
		c.verdict = "ok"
	case spread > bound && allWorse:
		c.verdict = "worse"
	case spread > bound:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "worse"
	default:
		c.verdict = "ok"
	}
	return c
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the paired wins, and the verdict. It fails when
// any metric is worse.
func compareFiles(root, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	values := func(rs []record, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "%-10s  %-14s %28s %28s %8s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B worse", "B wins", "verdict")
	status := 0
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := values(a, w.Name, ms.Name), values(b, w.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareMetric(va, vb, ms.Better, ms.Bound)
			fmt.Fprintf(stdout, "%-10s  %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %3d/%-3d  %s (bound %g%%)\n",
				w.Name, ms.Name, c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, 100*c.worse,
				c.wins, c.pairs, c.verdict, 100*ms.Bound)
			if c.verdict == "worse" {
				status = 1
			}
		}
	}
	return status
}
