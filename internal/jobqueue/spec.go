package jobqueue

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"jouppi/internal/cache"
	"jouppi/internal/trace"
	"jouppi/sim"
)

// Trace upload formats accepted by POST /jobs.
const (
	FormatJTR1   = "jtr1"
	FormatDinero = "din"
)

// Spec is a fully-parsed, validated job: what to simulate and how hard
// to try. The API layer builds it from the request JSON; everything
// here has already been checked, so a Spec that reaches the queue can
// only fail for runtime reasons (corrupt trace body, panic, timeout).
type Spec struct {
	// Benchmark names a built-in workload; Scale sizes it. Mutually
	// exclusive with TraceData.
	Benchmark string
	Scale     float64
	// TraceData is an uploaded encoded trace in TraceFormat (jtr1/din).
	TraceData   []byte
	TraceFormat string
	// Lenient enables count-and-skip decode of damaged uploads; the
	// resulting Degradation report is surfaced in the job status.
	// MaxDrops caps tolerated damage (0 = unlimited).
	Lenient  bool
	MaxDrops uint64
	// Configs is the fan-out list: every configuration replays the same
	// single trace decode.
	Configs []sim.LabeledConfig
	// Timeout bounds each attempt; Deadline bounds the whole job across
	// retries and backoff. Zero values take the queue defaults.
	Timeout  time.Duration
	Deadline time.Duration
	// Retries re-runs a retryably-failed job this many extra times,
	// paced by the queue's backoff policy. -1 means the queue default.
	Retries int

	// digest is TraceDigest, computed once when the queue admits its own
	// copy of the spec: the upload is hashed once per job, for the cache
	// key and the result alike.
	digest string
}

// Validate checks a Spec the way Submit will rely on it.
func (s *Spec) Validate() error {
	switch {
	case s.Benchmark != "" && len(s.TraceData) > 0:
		return fmt.Errorf("jobqueue: a job names a benchmark or uploads a trace, not both")
	case s.Benchmark == "" && len(s.TraceData) == 0:
		return fmt.Errorf("jobqueue: a job must name a benchmark or upload a trace")
	case s.Benchmark != "":
		if !(s.Scale > 0) || math.IsInf(s.Scale, 0) {
			return fmt.Errorf("jobqueue: scale must be a positive finite number, got %v", s.Scale)
		}
		found := false
		for _, b := range sim.Benchmarks() {
			if b == s.Benchmark {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("jobqueue: unknown benchmark %q (have %v)", s.Benchmark, sim.Benchmarks())
		}
	default:
		if s.TraceFormat != FormatJTR1 && s.TraceFormat != FormatDinero {
			return fmt.Errorf("jobqueue: trace format must be %q or %q, got %q",
				FormatJTR1, FormatDinero, s.TraceFormat)
		}
	}
	if len(s.Configs) == 0 {
		return fmt.Errorf("jobqueue: a job needs at least one configuration")
	}
	if s.Timeout < 0 || s.Deadline < 0 {
		return fmt.Errorf("jobqueue: negative timeout")
	}
	if s.Retries < -1 {
		return fmt.Errorf("jobqueue: negative retries")
	}
	return nil
}

// traceAttrs describes the job's input for its root span: what is being
// simulated and how wide the fan-out is, without ever embedding trace
// bytes.
func (s *Spec) traceAttrs() []trace.Attr {
	attrs := []trace.Attr{trace.Int("configs", len(s.Configs))}
	if s.Benchmark != "" {
		attrs = append(attrs,
			trace.String("benchmark", s.Benchmark),
			trace.String("scale", strconv.FormatFloat(s.Scale, 'g', -1, 64)))
	} else {
		attrs = append(attrs,
			trace.String("format", s.TraceFormat),
			trace.Int("upload_bytes", len(s.TraceData)))
	}
	return attrs
}

// TraceDigest returns the identity of the job's input trace: the hex
// SHA-256 of the uploaded bytes, or "benchmark/<name>@<scale>" with the
// scale's exact bits for a referenced workload. A spec the queue has
// admitted returns the digest computed at admission.
func (s *Spec) TraceDigest() string {
	if s.digest != "" {
		return s.digest
	}
	if s.Benchmark != "" {
		return fmt.Sprintf("benchmark/%s@%016x", s.Benchmark, math.Float64bits(s.Scale))
	}
	sum := sha256.Sum256(s.TraceData)
	return hex.EncodeToString(sum[:])
}

// CacheKey derives the content address of the job's result: a SHA-256
// over the trace digest, the decode options (lenient decode changes the
// replayed stream, so it must key separately), each configuration's
// canonical spec (sim.Format) in submission order, and the build
// version. Specs that build the same systems share a key however they
// were spelled, and any difference in input, systems, or code yields a
// different one. Labels and execution policy — Timeout, Deadline,
// Retries — are deliberately excluded: they change what a result is
// called and how hard the queue tries, never the simulated numbers, so
// the store answers a hit under the submitter's own labels.
func (s *Spec) CacheKey(version string) string {
	h := sha256.New()
	fmt.Fprintf(h, "trace=%s format=%s lenient=%t maxdrops=%d\n",
		s.TraceDigest(), s.TraceFormat, s.Lenient, s.MaxDrops)
	for _, c := range s.Configs {
		fmt.Fprintf(h, "config=%s\n", sim.Format(c.Config))
	}
	fmt.Fprintf(h, "version=%s\n", version)
	return hex.EncodeToString(h.Sum(nil))
}

// ParseConfigs parses a fan-out configuration list in the sim
// configuration grammar (sim.ParseConfigs) over the paper baseline.
// Every parsed configuration is checked against the limits below and
// validated the way building its system would, without building it, so
// a spec that parses is a spec that runs.
func ParseConfigs(s string) ([]sim.LabeledConfig, error) {
	cfgs, err := sim.ParseConfigs(s, sim.BaselineSystem())
	if err != nil {
		return nil, fmt.Errorf("jobqueue: %w", err)
	}
	for _, c := range cfgs {
		if err := checkLimits(c.Config); err != nil {
			return nil, fmt.Errorf("jobqueue: config %q: %w", c.Label, err)
		}
	}
	return cfgs, nil
}

// Limits on a job's configurations. Building a system allocates its
// caches and auxiliary structures, so without these bounds a request of
// about a hundred bytes could make ParseConfigs allocate gigabytes
// before any admission check. Each is far above every configuration in
// the paper, whose largest cache is the 1 MiB L2 and whose auxiliary
// structures hold at most 16 entries.
const (
	// MaxCacheBytes bounds the size of every cache (L1I, L1D, L2).
	MaxCacheBytes = 4 << 20
	// MaxCacheLines bounds every cache's line count (size over line
	// size), which is what its arrays are allocated by.
	MaxCacheLines = 1 << 18
	// MaxAuxEntries bounds miss-cache and victim-cache entries at
	// either level.
	MaxAuxEntries = 1024
	// MaxStreamWays and MaxStreamDepth bound each set of stream buffers.
	MaxStreamWays  = 64
	MaxStreamDepth = 64
)

// checkLimits rejects a configuration that exceeds the limits above,
// measured on the system it builds (unset geometry takes the paper
// baseline's; stream buffers without ways are never built), or that
// hierarchy.Config.Validate rejects.
func checkLimits(c sim.Config) error {
	hc, err := c.Hierarchy()
	if err != nil {
		return err
	}
	for _, g := range []cache.Config{hc.L1I, hc.L1D, hc.L2} {
		if g.Size > MaxCacheBytes {
			return fmt.Errorf("%s size %d exceeds the limit of %d bytes", g.Name, g.Size, MaxCacheBytes)
		}
		if g.LineSize > 0 && g.Size/g.LineSize > MaxCacheLines {
			return fmt.Errorf("%s holds %d lines, above the limit of %d", g.Name, g.Size/g.LineSize, MaxCacheLines)
		}
	}
	for _, l := range []struct {
		key    string
		n, max int
	}{
		{"misscache", c.D.MissCacheEntries, MaxAuxEntries}, {"imisscache", c.I.MissCacheEntries, MaxAuxEntries},
		{"victim", c.D.VictimCacheEntries, MaxAuxEntries}, {"ivictim", c.I.VictimCacheEntries, MaxAuxEntries},
		{"l2victim", c.L2VictimEntries, MaxAuxEntries},
		{"ways", hc.DAugment.Stream.Ways, MaxStreamWays}, {"iways", hc.IAugment.Stream.Ways, MaxStreamWays},
		{"depth", hc.DAugment.Stream.Depth, MaxStreamDepth}, {"idepth", hc.IAugment.Stream.Depth, MaxStreamDepth},
	} {
		if l.n > l.max {
			return fmt.Errorf("%s=%d exceeds the limit of %d", l.key, l.n, l.max)
		}
	}
	return hc.Validate()
}
