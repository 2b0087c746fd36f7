package jobqueue

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"jouppi/internal/memtrace"
	"jouppi/internal/trace"
	"jouppi/sim"
)

// ConfigResult pairs one submitted configuration label with its
// simulation results.
type ConfigResult struct {
	Label   string      `json:"label"`
	Results sim.Results `json:"results"`
}

// ResultBody is the canonical result of a completed job — what GET
// /jobs/{id} returns under "result" and what the content-addressed
// store persists. Encode renders it deterministically, so a cache hit
// is byte-identical to the run that produced it.
type ResultBody struct {
	// Version is the build that computed the result (part of the cache
	// key, recorded for provenance).
	Version string `json:"version"`
	// Benchmark/Scale or TraceDigest identify the input.
	Benchmark   string  `json:"benchmark,omitempty"`
	Scale       float64 `json:"scale,omitempty"`
	TraceDigest string  `json:"trace_digest"`
	// Records is the replayed access count (decoded records for an
	// upload; generated accesses are not re-counted for benchmarks).
	Records uint64 `json:"records,omitempty"`
	// Degradation reports what a lenient decode dropped; absent for
	// clean inputs.
	Degradation *memtrace.Degradation `json:"degradation,omitempty"`
	Configs     []ConfigResult        `json:"configs"`
}

// Encode renders the body as canonical JSON (deterministic field order,
// trailing newline). Byte-identical inputs yield byte-identical output.
func (b *ResultBody) Encode() ([]byte, error) {
	data, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: encoding result: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeResult parses bytes produced by Encode.
func DecodeResult(data []byte) (*ResultBody, error) {
	var b ResultBody
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("jobqueue: decoding result: %w", err)
	}
	return &b, nil
}

// relabel returns a stored result body under the labels of cfgs. The
// cache key leaves labels out, so the submission that stored the body
// may have spelled the same configurations differently; its numbers are
// reused, its labels are not. Encode is deterministic, so a body that
// already carries cfgs' labels comes back byte-identical.
func relabel(body []byte, cfgs []sim.LabeledConfig) ([]byte, error) {
	b, err := DecodeResult(body)
	if err != nil {
		return nil, err
	}
	if len(b.Configs) != len(cfgs) {
		return nil, fmt.Errorf("jobqueue: stored result has %d configurations, want %d", len(b.Configs), len(cfgs))
	}
	for i, c := range cfgs {
		b.Configs[i].Label = c.Label
	}
	return b.Encode()
}

// permanentError wraps a failure that retrying cannot fix: corrupt
// uploaded bytes, an invalid configuration. The queue accepts such
// failures immediately instead of burning retry attempts and backoff
// time on them.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as not retryable.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (anywhere in its chain) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Runner executes one validated job spec under ctx and produces its
// result. The queue's default is DefaultRunner; tests substitute
// deterministic or failing runners.
type Runner func(ctx context.Context, spec *Spec, version string) (*ResultBody, error)

// DefaultRunner simulates the job for real: benchmark jobs fan out
// through the single-pass replay engine (the workload is generated
// once, every configuration consumes the same stream); uploaded traces
// are decoded once — strictly, or leniently with a drop budget — and
// then replayed through each configuration. Cancellation is honoured
// between accesses on every path.
func DefaultRunner(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
	body := &ResultBody{
		Version:     version,
		Benchmark:   spec.Benchmark,
		Scale:       spec.Scale,
		TraceDigest: spec.TraceDigest(),
	}
	if spec.Benchmark != "" {
		cfgs := make([]sim.Config, len(spec.Configs))
		for i, c := range spec.Configs {
			cfgs[i] = c.Config
		}
		results, err := sim.ReplayManyContext(ctx, spec.Benchmark, spec.Scale, nil, cfgs)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			body.Configs = append(body.Configs, ConfigResult{Label: spec.Configs[i].Label, Results: r})
		}
		return body, nil
	}

	// The upload is decoded exactly once; its extent is recorded as a
	// retroactive "decode" span so a slow trace shows up as decode time,
	// not replay time.
	decStart := time.Now()
	tr, degr, err := decodeUpload(spec)
	if err != nil {
		trace.FromContext(ctx).Record("decode", decStart, time.Now(),
			trace.String("format", spec.TraceFormat), trace.String("err", err.Error()))
		// The uploaded bytes are immutable; a decode failure now is a
		// decode failure forever.
		return nil, Permanent(fmt.Errorf("jobqueue: decoding uploaded trace: %w", err))
	}
	trace.FromContext(ctx).Record("decode", decStart, time.Now(),
		trace.String("format", spec.TraceFormat), trace.Int("records", tr.Len()))
	body.Records = uint64(tr.Len())
	if degr != nil && degr.Degraded() {
		body.Degradation = degr
	}
	for _, c := range spec.Configs {
		_, csp := trace.Start(ctx, "replay", trace.String("config", c.Label))
		sys, err := sim.NewSystem(c.Config)
		if err != nil {
			csp.End()
			// Configs are validated at submission; reaching this means a
			// bug, but it is still not retryable.
			return nil, Permanent(fmt.Errorf("jobqueue: config %q: %w", c.Label, err))
		}
		if err := memtrace.EachContext(ctx, tr.Source(), func(a memtrace.Access) {
			switch a.Kind {
			case memtrace.Ifetch:
				sys.Ifetch(uint64(a.Addr))
			case memtrace.Load:
				sys.Load(uint64(a.Addr))
			case memtrace.Store:
				sys.Store(uint64(a.Addr))
			}
		}); err != nil {
			csp.SetAttr("err", err.Error())
			csp.End()
			return nil, err
		}
		csp.End()
		body.Configs = append(body.Configs, ConfigResult{Label: c.Label, Results: sys.Results()})
	}
	return body, nil
}

// decodeUpload decodes the spec's uploaded bytes into a materialized
// trace, once, applying the lenient count-and-skip policy if requested.
func decodeUpload(spec *Spec) (*memtrace.Trace, *memtrace.Degradation, error) {
	r := bytes.NewReader(spec.TraceData)
	if !spec.Lenient {
		var (
			tr  *memtrace.Trace
			err error
		)
		if spec.TraceFormat == FormatJTR1 {
			tr, err = memtrace.ReadTrace(r)
		} else {
			tr, err = memtrace.ReadDinero(r)
		}
		if err != nil {
			return nil, nil, err
		}
		return tr, nil, nil
	}

	var (
		src    memtrace.Source
		errFn  func() error
		degrFn func() memtrace.Degradation
	)
	if spec.TraceFormat == FormatJTR1 {
		// Lenient decode tolerates record-level damage; a damaged JTR1
		// header is rejected before any record exists to salvage.
		jr, err := memtrace.NewReader(r)
		if err != nil {
			return nil, nil, err
		}
		jr.Lenient(spec.MaxDrops)
		src, errFn, degrFn = jr, jr.Err, jr.Degradation
	} else {
		dr := memtrace.NewDineroReader(r).Lenient(spec.MaxDrops)
		src, errFn, degrFn = dr, dr.Err, dr.Degradation
	}
	tr := memtrace.NewTrace(0)
	memtrace.Each(src, tr.Append)
	if err := errFn(); err != nil {
		return nil, nil, err
	}
	degr := degrFn()
	return tr, &degr, nil
}
