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

// DefaultRunner simulates the job for real, in one replay pass that
// every configuration consumes: a benchmark job generates its workload
// once, and an upload is decoded once — strictly, or leniently with a
// drop budget — and then replayed. Cancellation is polled once per chunk
// of the pass.
func DefaultRunner(ctx context.Context, spec *Spec, version string) (*ResultBody, error) {
	body := &ResultBody{
		Version:     version,
		Benchmark:   spec.Benchmark,
		Scale:       spec.Scale,
		TraceDigest: spec.TraceDigest(),
	}
	var src *sim.Source
	if spec.Benchmark != "" {
		var err error
		if src, err = sim.Benchmark(spec.Benchmark, spec.Scale); err != nil {
			return nil, Permanent(err)
		}
	} else {
		// The upload's decode is recorded as a retroactive "decode" span
		// so a slow trace shows up as decode time, not replay time.
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
		if degr.Degraded() {
			body.Degradation = &degr
		}
		src = sim.Stream(tr.Source())
	}
	systems := make([]*sim.System, len(spec.Configs))
	for i, c := range spec.Configs {
		sys, err := sim.NewSystem(c.Config)
		if err != nil {
			// Configurations are validated at submission; a failure here
			// means a bug, but it is still not retryable.
			return nil, Permanent(fmt.Errorf("jobqueue: config %q: %w", c.Label, err))
		}
		systems[i] = sys
	}
	if err := sim.Replay(ctx, src, systems...); err != nil {
		return nil, err
	}
	for i, sys := range systems {
		body.Configs = append(body.Configs, ConfigResult{Label: spec.Configs[i].Label, Results: sys.Results()})
	}
	return body, nil
}

// decodeUpload decodes the spec's uploaded bytes into a materialized
// trace, once, applying the lenient count-and-skip policy if requested.
func decodeUpload(spec *Spec) (*memtrace.Trace, memtrace.Degradation, error) {
	format := memtrace.Din
	if spec.TraceFormat == FormatJTR1 {
		format = memtrace.JTR
	}
	// A damaged JTR1 header fails here even in lenient mode: no record
	// exists yet to salvage.
	dec, err := memtrace.NewDecoder(bytes.NewReader(spec.TraceData), format)
	if err != nil {
		return nil, memtrace.Degradation{}, err
	}
	if spec.Lenient {
		dec.Lenient(spec.MaxDrops)
	}
	// A JTR1 record takes 8 bytes, a din line about as many.
	tr := memtrace.NewTrace(len(spec.TraceData) / 8)
	memtrace.Drain(dec, tr)
	if err := dec.Err(); err != nil {
		return nil, memtrace.Degradation{}, err
	}
	return tr, dec.Degradation(), nil
}
