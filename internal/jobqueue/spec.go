package jobqueue

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"jouppi/internal/hierarchy"
	"jouppi/internal/trace"
	"jouppi/sim"
)

// Trace upload formats accepted by POST /jobs.
const (
	FormatJTR1   = "jtr1"
	FormatDinero = "din"
)

// ConfigSpec is one system configuration of a job, with the label it
// was submitted under. It marshals deterministically (fixed field
// order), which is what makes it usable inside the cache key.
type ConfigSpec struct {
	Label  string     `json:"label"`
	Config sim.Config `json:"config"`
}

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
	Configs []ConfigSpec
	// Timeout bounds each attempt; Deadline bounds the whole job across
	// retries and backoff. Zero values take the queue defaults.
	Timeout  time.Duration
	Deadline time.Duration
	// Retries re-runs a retryably-failed job this many extra times,
	// paced by the queue's backoff policy. -1 means the queue default.
	Retries int
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
// scale's exact bits for a referenced workload.
func (s *Spec) TraceDigest() string {
	if s.Benchmark != "" {
		return fmt.Sprintf("benchmark/%s@%016x", s.Benchmark, math.Float64bits(s.Scale))
	}
	sum := sha256.Sum256(s.TraceData)
	return hex.EncodeToString(sum[:])
}

// CacheKey derives the content address of the job's result: a SHA-256
// over the trace digest, the decode options (lenient decode changes the
// replayed stream, so it must key separately), the canonicalized
// configuration list, and the build version. Identical submissions to
// the same binary collapse to one key; any difference in input, config,
// or code yields a different one. Execution policy — Timeout, Deadline,
// Retries — is deliberately excluded: it changes how hard the queue
// tries, never what the result is, so policy variants share one result.
func (s *Spec) CacheKey(version string) string {
	h := sha256.New()
	fmt.Fprintf(h, "trace=%s format=%s lenient=%t maxdrops=%d\n",
		s.TraceDigest(), s.TraceFormat, s.Lenient, s.MaxDrops)
	cfgs, err := json.Marshal(s.Configs)
	if err != nil {
		// sim.Config is plain data; Marshal cannot fail. Guard anyway.
		cfgs = []byte(fmt.Sprintf("%+v", s.Configs))
	}
	h.Write(cfgs)
	fmt.Fprintf(h, "\nversion=%s\n", version)
	return hex.EncodeToString(h.Sum(nil))
}

// ParseConfigs parses a fan-out configuration list: semicolon-separated
// specs, each a comma-separated key=value list over the grammar below.
// The empty spec is the paper baseline, labelled "baseline"; each
// spec's label is its own trimmed text.
//
//	sys=baseline|improved      preset to start from
//	size/line/assoc=N          both L1 geometries (isize/dsize etc. for one side)
//	l2size/l2line/l2assoc=N    L2 geometry
//	victim=N / ivictim=N       D-/I-side victim cache entries
//	misscache=N / imisscache=N D-/I-side miss cache entries
//	ways=N,depth=N             D-side stream buffers (iways/idepth for I-side)
//	quasi=bool, stride=bool    stream buffer extensions (both sides)
//	l2victim=N                 victim cache behind the L2
//
// Every parsed configuration is checked against the limits below and
// then validated by constructing the system, so a spec that parses is a
// spec that runs.
func ParseConfigs(s string) ([]ConfigSpec, error) {
	var out []ConfigSpec
	for _, one := range strings.Split(s, ";") {
		cfg, label, err := parseOneConfig(one)
		if err != nil {
			return nil, err
		}
		if err := checkLimits(cfg); err != nil {
			return nil, fmt.Errorf("jobqueue: config %q: %w", label, err)
		}
		if _, err := sim.NewSystem(cfg); err != nil {
			return nil, fmt.Errorf("jobqueue: config %q: %w", label, err)
		}
		out = append(out, ConfigSpec{Label: label, Config: cfg})
	}
	return out, nil
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

// checkLimits rejects a configuration that exceeds the limits above.
// Unset geometry takes the paper baseline's, as the built system would.
func checkLimits(c sim.Config) error {
	def := hierarchy.DefaultConfig()
	for _, g := range []struct {
		name       string
		size, line int
	}{
		{"L1I", cmp.Or(c.L1I.Size, def.L1I.Size), cmp.Or(c.L1I.LineSize, def.L1I.LineSize)},
		{"L1D", cmp.Or(c.L1D.Size, def.L1D.Size), cmp.Or(c.L1D.LineSize, def.L1D.LineSize)},
		{"L2", cmp.Or(c.L2.Size, def.L2.Size), cmp.Or(c.L2.LineSize, def.L2.LineSize)},
	} {
		if g.size > MaxCacheBytes {
			return fmt.Errorf("%s size %d exceeds the limit of %d bytes", g.name, g.size, MaxCacheBytes)
		}
		if g.line > 0 && g.size/g.line > MaxCacheLines {
			return fmt.Errorf("%s holds %d lines, above the limit of %d", g.name, g.size/g.line, MaxCacheLines)
		}
	}
	for _, a := range []struct {
		key string
		n   int
	}{
		{"misscache", c.D.MissCacheEntries}, {"imisscache", c.I.MissCacheEntries},
		{"victim", c.D.VictimCacheEntries}, {"ivictim", c.I.VictimCacheEntries},
		{"l2victim", c.L2VictimEntries},
	} {
		if a.n > MaxAuxEntries {
			return fmt.Errorf("%s=%d exceeds the limit of %d entries", a.key, a.n, MaxAuxEntries)
		}
	}
	for _, st := range []struct {
		prefix string
		opt    *sim.StreamOptions
	}{{"", c.D.Stream}, {"i", c.I.Stream}} {
		if st.opt == nil {
			continue
		}
		if st.opt.Ways > MaxStreamWays {
			return fmt.Errorf("%sways=%d exceeds the limit of %d", st.prefix, st.opt.Ways, MaxStreamWays)
		}
		if st.opt.Depth > MaxStreamDepth {
			return fmt.Errorf("%sdepth=%d exceeds the limit of %d", st.prefix, st.opt.Depth, MaxStreamDepth)
		}
	}
	return nil
}

// parseOneConfig parses one semicolon-separated element of a config
// list into a sim.Config.
func parseOneConfig(s string) (sim.Config, string, error) {
	cfg := sim.BaselineSystem()
	label := strings.TrimSpace(s)
	if label == "" {
		label = "baseline"
	}
	var (
		iWays, iDepth, dWays, dDepth int
		quasi, stride                bool
		haveIStream, haveDStream     bool
	)
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, "", fmt.Errorf("jobqueue: config %q: want key=value, got %q", label, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		bad := func(err error) (sim.Config, string, error) {
			return cfg, "", fmt.Errorf("jobqueue: config %q: %s: %v", label, key, err)
		}
		switch key {
		case "sys":
			switch val {
			case "baseline":
				cfg = sim.BaselineSystem()
			case "improved":
				cfg = sim.ImprovedSystem()
				if st := cfg.I.Stream; st != nil {
					iWays, iDepth, haveIStream = st.Ways, st.Depth, true
				}
				if st := cfg.D.Stream; st != nil {
					dWays, dDepth, haveDStream = st.Ways, st.Depth, true
				}
			default:
				return bad(fmt.Errorf("unknown preset %q (have baseline, improved)", val))
			}
		case "quasi", "stride":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return bad(err)
			}
			if key == "quasi" {
				quasi = b
			} else {
				stride = b
			}
		default:
			n, err := strconv.Atoi(val)
			if err != nil {
				return bad(err)
			}
			switch key {
			case "size":
				cfg.L1I.Size, cfg.L1D.Size = n, n
			case "isize":
				cfg.L1I.Size = n
			case "dsize":
				cfg.L1D.Size = n
			case "line":
				cfg.L1I.LineSize, cfg.L1D.LineSize = n, n
			case "iline":
				cfg.L1I.LineSize = n
			case "dline":
				cfg.L1D.LineSize = n
			case "assoc":
				cfg.L1I.Assoc, cfg.L1D.Assoc = n, n
			case "iassoc":
				cfg.L1I.Assoc = n
			case "dassoc":
				cfg.L1D.Assoc = n
			case "l2size":
				cfg.L2.Size = n
			case "l2line":
				cfg.L2.LineSize = n
			case "l2assoc":
				cfg.L2.Assoc = n
			case "victim":
				cfg.D.VictimCacheEntries = n
			case "ivictim":
				cfg.I.VictimCacheEntries = n
			case "misscache":
				cfg.D.MissCacheEntries = n
			case "imisscache":
				cfg.I.MissCacheEntries = n
			case "ways":
				dWays, haveDStream = n, true
			case "depth":
				dDepth, haveDStream = n, true
			case "iways":
				iWays, haveIStream = n, true
			case "idepth":
				iDepth, haveIStream = n, true
			case "l2victim":
				cfg.L2VictimEntries = n
			default:
				return cfg, "", fmt.Errorf("jobqueue: config %q: unknown key %q", label, key)
			}
		}
	}
	if haveIStream {
		cfg.I.Stream = &sim.StreamOptions{Ways: iWays, Depth: iDepth, Quasi: quasi, DetectStride: stride}
	}
	if haveDStream {
		cfg.D.Stream = &sim.StreamOptions{Ways: dWays, Depth: dDepth, Quasi: quasi, DetectStride: stride}
	}
	if (quasi || stride) && !haveIStream && !haveDStream {
		return cfg, "", fmt.Errorf("jobqueue: config %q: quasi/stride require stream buffers (ways/iways)", label)
	}
	return cfg, label, nil
}
