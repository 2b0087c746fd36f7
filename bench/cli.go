package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// sweepConfigs are the cli-sweep configurations: the paper's sweep over
// miss caches, victim caches and stream buffers, plus a 4-way L1.
var sweepConfigs = []feConfig{
	{spec: ""},
	{spec: "misscache=4", missCache: 4},
	{spec: "victim=1", victim: 1},
	{spec: "victim=4", victim: 4},
	{spec: "ways=1", ways: 1},
	{spec: "ways=4", ways: 4},
	{spec: "victim=4,ways=4", victim: 4, ways: 4},
	{spec: "assoc=4", assoc: 4},
}

// dinConfig is the single configuration of cli-din: the paper's improved
// data cache, a 4-entry victim cache and a 4-way stream buffer.
var dinConfig = feConfig{spec: "victim=4,ways=4", victim: 4, ways: 4}

// configName turns a config spec into a metric-safe name: "" and
// "sys=baseline" are "baseline", "victim=4,ways=4" is "victim4_stream4".
func configName(spec string) string {
	if spec == "" {
		return "baseline"
	}
	spec = strings.TrimPrefix(spec, "sys=")
	spec = strings.ReplaceAll(spec, "ways=", "stream")
	spec = strings.ReplaceAll(spec, "=", "")
	return strings.ReplaceAll(spec, ",", "_")
}

// ints returns the whole numbers among the words of s.
func ints(s string) []uint64 {
	var out []uint64
	for _, w := range strings.Fields(s) {
		if n, err := strconv.ParseUint(strings.Trim(w, "(),"), 10, 64); err == nil {
			out = append(out, n)
		}
	}
	return out
}

// parseSingle reads the counters of a single-configuration cachesim
// report. Lines it does not know are ignored, so added output does not
// break it; the "aux hits" and "prefetches" lines appear only when
// nonzero.
func parseSingle(out []byte) (feNums, error) {
	var n feNums
	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		v := ints(rest)
		if len(v) == 0 {
			continue
		}
		seen[key] = true
		switch key {
		case "accesses":
			n.Accesses = v[0]
		case "L1 hits":
			n.L1Hits = v[0]
		case "L1 misses":
			n.L1Misses = v[0]
		case "aux hits":
			if len(v) != 4 {
				return n, fmt.Errorf("aux hits line %q", line)
			}
			n.AuxHits, n.VictimHits, n.MissCacheHits, n.StreamHits = v[0], v[1], v[2], v[3]
		case "full misses":
			n.FullMisses = v[0]
		case "prefetches":
			if len(v) < 2 {
				return n, fmt.Errorf("prefetches line %q", line)
			}
			n.PrefetchIssued, n.PrefetchUsed = v[0], v[1]
		case "stall cycles":
			n.StallCycles = v[0]
		}
	}
	for _, key := range []string{"accesses", "L1 hits", "L1 misses", "full misses", "stall cycles"} {
		if !seen[key] {
			return n, fmt.Errorf("no %q line in cachesim output", key)
		}
	}
	return n, nil
}

// checkSweep matches each configuration's row of a cachesim -fanout
// table against its reference counters.
func checkSweep(out []byte, want []feNums) error {
	rows := map[string][]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 6 {
			rows[f[0]] = f[1:]
		}
	}
	for i, c := range sweepConfigs {
		label := c.spec
		if label == "" {
			label = "baseline"
		}
		row, ok := rows[label]
		if !ok {
			return fmt.Errorf("no row for %q in cachesim output", label)
		}
		w := want[i]
		exp := []string{fmt.Sprint(w.Accesses), fmt.Sprint(w.L1Misses), fmt.Sprint(w.AuxHits),
			fmt.Sprint(w.FullMisses), fmt.Sprintf("%.4f", float64(w.FullMisses)/float64(max(w.Accesses, 1)))}
		if strings.Join(row, " ") != strings.Join(exp, " ") {
			return fmt.Errorf("config %q: cachesim printed %v, reference %v", label, row, exp)
		}
	}
	return nil
}

// prepareCLI writes a cli workload's trace file and computes its
// reference counters. sweep selects cli-sweep (JTR1 file, eight
// configurations fanned out) over cli-din (din file, one configuration).
func prepareCLI(e *env, dir string, sweep bool) (*fixture, error) {
	stream, n, format := streamDin, e.sz.dinRecords, "din"
	if sweep {
		stream, n, format = streamSweep, e.sz.sweepRecords, "jtr"
	}
	refs := genTrace(e.seed, stream, n)
	data, err := encodeTrace(refs, format)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "trace."+format)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	cachesim := filepath.Join(e.bin, "cachesim")
	sp, err := startSpawner(e.bin)
	if err != nil {
		return nil, err
	}
	drefs := dataRefs(refs)
	var (
		args   []string
		check  func([]byte) error
		ref    any
		simAcc uint64
	)
	if sweep {
		want := make([]feNums, len(sweepConfigs))
		specs := make([]string, len(sweepConfigs))
		for i, c := range sweepConfigs {
			want[i] = replayFrontEnd(c, drefs)
			specs[i] = c.spec
			simAcc += want[i].Accesses
		}
		args = []string{"-trace", path, "-side", "data", "-fanout", strings.Join(specs, ";")}
		check = func(out []byte) error { return checkSweep(out, want) }
		ref = want
	} else {
		want := replayFrontEnd(dinConfig, drefs)
		args = []string{"-trace", path, "-format", "din", "-side", "data", "-victim", "4", "-ways", "4"}
		check = func(out []byte) error {
			got, err := parseSingle(out)
			if err == nil && got != want {
				err = fmt.Errorf("cachesim printed %+v, reference %+v", got, want)
			}
			return err
		}
		ref = want
		simAcc = want.Accesses
	}
	var seq atomic.Int64
	op := func(ctx context.Context, tr *tracer) opStat {
		k := seq.Add(1)
		run, err := sp.run(cachesim, args...)
		if err == nil {
			err = check(run.Stdout)
		}
		if tr != nil {
			tr.add(k, "op", "cachesim", run.Start, run.End, -1)
		}
		return opStat{seq: k, start: run.Start, end: run.End, err: err, cpu: run.CPU, rssKB: run.RSSKB,
			simAcc: simAcc}
	}
	return &fixture{op: op, inputDigest: digest(data), resultDigest: resultsDigest(ref),
		refs: refs, path: path, close: sp.close}, nil
}
