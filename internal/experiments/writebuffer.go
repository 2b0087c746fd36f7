package experiments

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
	"jouppi/internal/textplot"
)

// ablationWriteBuffer is the dynamic counterpart of ablation-bandwidth:
// it actually runs the write-through data side through coalescing write
// buffers of several depths against a pipelined (4-cycle) and an
// unpipelined (16-cycle) second-level write port, and reports the store
// stall cycles per access. §2's claim — that an unpipelined L2 cannot
// absorb write-through store traffic — shows up as stalls no reasonable
// buffer depth can hide.
func ablationWriteBuffer(cfg Config) *Result {
	names := benchNames()
	depths := []int{1, 2, 4, 8}
	intervals := []int{4, 16} // pipelined vs unpipelined L2 port

	// One pass per benchmark: a plain baseline and a write-buffered
	// front end per (port speed, depth).
	type sweep struct {
		base *core.Level
		fes  [2][4]*core.WithWriteBuffer // [intervalIdx][depthIdx]
	}
	sweeps := make([]sweep, len(names))
	cfg.plan(eachBench(func(b int) []*run {
		sw := &sweeps[b]
		sw.base = level(cache.MustNew(l1Config(4096, 16)), core.Aux{})
		runs := []*run{group(dSide, nil, sw.base)}
		for ii, interval := range intervals {
			for di, depth := range depths {
				fe := core.NewWithWriteBuffer(level(cache.MustNew(l1Config(4096, 16)), core.Aux{}),
					core.NewWriteBuffer(depth, interval))
				sw.fes[ii][di] = fe
				runs = append(runs, feedFunc(dSide, func(a memtrace.Access) {
					fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
				}))
			}
		}
		return runs
	})...)

	headers := []string{"program", "port"}
	for _, d := range depths {
		headers = append(headers, fmt.Sprintf("wb%d", d))
	}
	var rows [][]string
	for i, name := range names {
		for ii, interval := range intervals {
			kind := "pipelined(4)"
			if interval == 16 {
				kind = "unpipelined(16)"
			}
			row := []string{name, kind}
			for _, fe := range sweeps[i].fes[ii] {
				st := fe.Stats()
				// Isolate the buffer's contribution: stalls beyond the
				// plain front end's.
				stall := float64(st.StallCycles-sweeps[i].base.Stats().StallCycles) / float64(max(1, st.Accesses))
				row = append(row, fmt.Sprintf("%.2f", stall))
			}
			rows = append(rows, row)
		}
	}
	text := textplot.Table(headers, rows) +
		"\n(extra store-stall cycles per data access from the write buffer, on a\n" +
		" write-through 4KB data cache. Against a pipelined L2 write port a few\n" +
		" entries absorb the bursts; against an unpipelined port the §2 bandwidth\n" +
		" wall appears: stalls stay high regardless of depth for the store-heavy\n" +
		" benchmarks.)\n"
	return &Result{ID: "ablation-writebuffer",
		Title: "Write buffer depth vs L2 write-port speed",
		Text:  text, Headers: headers, Rows: rows}
}
