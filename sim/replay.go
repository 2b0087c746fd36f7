package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"

	"jouppi/internal/fanout"
	"jouppi/internal/hierarchy"
	"jouppi/internal/memtrace"
	"jouppi/internal/trace"
	"jouppi/internal/workload"
)

// ErrUnknownFormat is returned, wrapped with the rejected name, for a
// trace format other than "jtr" (compact binary) or "din" (dinero text).
var ErrUnknownFormat = memtrace.ErrUnknownFormat

// Source is a stream of memory references for Replay: a generated
// benchmark (Benchmark), a trace file (OpenTrace) or a decoded stream
// (Stream).
type Source struct {
	// attrs name the source on the replay span.
	attrs []trace.Attr
	// bench, when set, is generated afresh at scale by every Replay.
	bench workload.Benchmark
	scale float64
	// stream is a single-pass stream; err, when set, reports what ended
	// it early (a decode error) and closer releases what backs it.
	stream memtrace.Source
	err    func() error
	closer io.Closer
}

// Benchmark returns the named workload at the given scale as a Source.
// Scale 1.0 is roughly 1–4M instructions depending on the benchmark; it
// must be positive and finite. The source generates the workload afresh
// on every Replay and never materializes it, so replay memory is O(1) in
// trace length.
func Benchmark(name string, scale float64) (*Source, error) {
	if !(scale > 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("sim: scale must be a positive finite number, got %v", scale)
	}
	b, err := benchmark(name)
	if err != nil {
		return nil, err
	}
	return &Source{attrs: []trace.Attr{trace.String("benchmark", name)}, bench: b, scale: scale}, nil
}

// OpenTrace opens a trace file (format "jtr" or "din") as a Source.
// Instruction counts are taken from the trace's ifetch records. The file
// is decoded in buffered chunks as Replay pulls it, so replay memory is
// O(1) in file size. The source is single-pass; Close it when done.
func OpenTrace(path, format string) (*Source, error) {
	tf, err := memtrace.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	dec, err := memtrace.NewDecoder(f, tf)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Source{attrs: []trace.Attr{trace.String("trace", path)}, stream: dec, err: dec.Err, closer: f}, nil
}

// Stream wraps an already-decoded single-pass stream as a Source; attrs
// annotate its replay span.
func Stream(s memtrace.Source, attrs ...trace.Attr) *Source {
	return &Source{attrs: attrs, stream: s}
}

// Close releases the file behind an OpenTrace source; it is a no-op for
// other sources.
func (s *Source) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// Replay drives one pass of src through every system and books the
// pass's instruction count on each. Several systems share that one pass
// through the fan-out engine, with numbers bit-identical to replaying
// each on its own. The replay polls ctx and stops early with its error
// once the context is done; the systems then hold a prefix of the trace.
// Introspection and telemetry are attached to a system before Replay.
//
// Every pass goes through the fan-out engine a chunk at a time. Systems
// whose first-level caches are write-through, of one geometry and in one
// state (fresh systems of one L1I and L1D geometry are) share one
// fan-out consumer, which probes and fills one L1I and one L1D for all
// of them in one loop per chunk, then has each system resolve the
// chunk's misses in reference order (hierarchy.Clusters); a lone system
// of that kind takes the same path on its own caches. A system with
// telemetry attached, a set heatmap on an L1, a write-back L1, or given
// twice replays alone, one reference at a time. When
// Replay returns, also early, every system's own caches hold what the
// shared ones do, so each can be driven, inspected or replayed on its
// own again.
//
// The whole pass is one "replay" span: trace production or decode and
// the broadcast are a single stage of a job's wall-clock, and the record
// count lands as an attribute at close, with the number of consumers
// after grouping. Span
// granularity is per replay, never per access, so tracing stays off the
// hot path.
func Replay(ctx context.Context, src *Source, systems ...*System) error {
	ctx, sp := trace.Start(ctx, "replay",
		slices.Concat(src.attrs, []trace.Attr{trace.Int("configs", len(systems))})...)
	defer sp.End()
	counts, err := replayChunks(ctx, sp, src, systems)
	if err != nil {
		sp.SetAttr("err", err.Error())
		return err
	}
	for _, s := range systems {
		s.instructions += counts.Instructions()
		s.sys.FlushTelemetry()
	}
	sp.SetAttr("records", fmt.Sprint(counts.Total()))
	return nil
}

// replayChunks makes Replay's pass through the fan-out engine, with one
// consumer per cluster of systems, and releases the clusters when it
// ends.
func replayChunks(ctx context.Context, sp *trace.Span, src *Source, systems []*System) (counts memtrace.Counts, err error) {
	hs := make([]*hierarchy.System, len(systems))
	for i, s := range systems {
		hs[i] = s.sys
	}
	clusters, release := hierarchy.Clusters(hs...)
	defer release()
	sp.SetAttr("consumers", strconv.Itoa(len(clusters)))
	consumers := make([]fanout.Consumer, len(clusters))
	for i, c := range clusters {
		consumers[i] = c
	}
	if src.bench != nil {
		// The workload pushes its chunks on this goroutine; a cancel
		// unwinds it.
		err = fanout.Generate(ctx, func(sink memtrace.Sink) {
			src.bench.Generate(src.scale, memtrace.SinkFunc(func(a memtrace.Access) {
				counts.Observe(a)
				sink.Access(a)
			}))
		}, consumers...)
	} else {
		counting := memtrace.NewCountingSource(src.stream)
		err = fanout.Replay(ctx, counting, consumers...)
		counts = counting.Counts
	}
	if err == nil && src.err != nil {
		err = src.err()
	}
	return counts, err
}
