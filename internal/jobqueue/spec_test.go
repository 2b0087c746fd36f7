package jobqueue

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"jouppi/sim"
)

func validSpec() *Spec {
	return &Spec{
		TraceData:   []byte("0 1000\n1 2000\n2 3000\n"),
		TraceFormat: FormatDinero,
		Configs:     []sim.LabeledConfig{{Label: "baseline", Config: sim.BaselineSystem()}},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"both inputs", func(s *Spec) { s.Benchmark = "liver"; s.Scale = 1 }, "not both"},
		{"no input", func(s *Spec) { s.TraceData = nil }, "must name a benchmark or upload"},
		{"bad format", func(s *Spec) { s.TraceFormat = "elf" }, "trace format"},
		{"no configs", func(s *Spec) { s.Configs = nil }, "at least one configuration"},
		{"negative timeout", func(s *Spec) { s.Timeout = -1 }, "negative timeout"},
		{"bad retries", func(s *Spec) { s.Retries = -2 }, "negative retries"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}

	bench := &Spec{Benchmark: "liver", Scale: 0.5, Configs: validSpec().Configs}
	if err := bench.Validate(); err != nil {
		t.Fatalf("benchmark spec rejected: %v", err)
	}
	bench.Scale = 0
	if err := bench.Validate(); err == nil {
		t.Fatal("zero scale accepted")
	}
	bench.Scale = 1
	bench.Benchmark = "nonesuch"
	if err := bench.Validate(); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unknown benchmark: got %v", err)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	base := validSpec()
	key := base.CacheKey("v1")
	if key != base.CacheKey("v1") {
		t.Fatal("cache key is not deterministic")
	}
	variants := map[string]*Spec{
		"trace bytes": func() *Spec { s := validSpec(); s.TraceData = []byte("0 1004\n"); return s }(),
		"format":      func() *Spec { s := validSpec(); s.TraceFormat = FormatJTR1; return s }(),
		"lenient":     func() *Spec { s := validSpec(); s.Lenient = true; return s }(),
		"max drops":   func() *Spec { s := validSpec(); s.Lenient = true; s.MaxDrops = 5; return s }(),
		"config": func() *Spec {
			s := validSpec()
			s.Configs[0].Config.D.VictimCacheEntries = 4
			return s
		}(),
	}
	for name, v := range variants {
		if v.CacheKey("v1") == key {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	if base.CacheKey("v2") == key {
		t.Error("changing the version did not change the cache key")
	}

	// Timeout/retry policy must NOT change the key: they affect how hard
	// the daemon tries, not what the result is. Nor must a label: it
	// names a result without changing it.
	s := validSpec()
	s.Timeout, s.Deadline, s.Retries = 1000, 2000, 3
	if s.CacheKey("v1") != key {
		t.Error("execution policy leaked into the cache key")
	}
	s = validSpec()
	s.Configs[0].Label = "other"
	if s.CacheKey("v1") != key {
		t.Error("the label leaked into the cache key")
	}
}

func TestTraceDigestBenchmarkVsUpload(t *testing.T) {
	b := &Spec{Benchmark: "liver", Scale: 0.25}
	if got := b.TraceDigest(); !strings.HasPrefix(got, "benchmark/liver@") {
		t.Fatalf("benchmark digest = %q", got)
	}
	b2 := &Spec{Benchmark: "liver", Scale: 0.5}
	if b.TraceDigest() == b2.TraceDigest() {
		t.Fatal("scale not folded into the benchmark digest")
	}
	u := validSpec()
	if len(u.TraceDigest()) != 64 {
		t.Fatalf("upload digest = %q, want 64 hex chars", u.TraceDigest())
	}
}

func TestParseConfigsGrammar(t *testing.T) {
	cfgs, err := ParseConfigs("")
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if len(cfgs) != 1 || cfgs[0].Label != "baseline" {
		t.Fatalf("empty spec = %+v, want one baseline", cfgs)
	}
	if cfgs[0].Config != sim.BaselineSystem() {
		t.Fatal("empty spec is not the baseline system")
	}

	cfgs, err = ParseConfigs("misscache=2; misscache=4 ;sys=improved")
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("got %d configs, want 3", len(cfgs))
	}
	if cfgs[0].Config.D.MissCacheEntries != 2 || cfgs[1].Config.D.MissCacheEntries != 4 {
		t.Fatalf("misscache values wrong: %+v", cfgs)
	}
	if cfgs[1].Label != "misscache=4" {
		t.Fatalf("label not trimmed: %q", cfgs[1].Label)
	}
	imp := cfgs[2].Config
	if imp.D.VictimCacheEntries != 4 || imp.D.Stream == nil || imp.D.Stream.Ways != 4 {
		t.Fatalf("sys=improved preset wrong: %+v", imp)
	}

	cfgs, err = ParseConfigs("size=8192,line=32,assoc=2,l2size=2097152,victim=4,ways=2,depth=8,quasi=true")
	if err != nil {
		t.Fatalf("full grammar: %v", err)
	}
	c := cfgs[0].Config
	switch {
	case c.L1I.Size != 8192 || c.L1D.Size != 8192:
		t.Fatalf("size: %+v", c)
	case c.L1D.LineSize != 32 || c.L1I.Assoc != 2:
		t.Fatalf("line/assoc: %+v", c)
	case c.L2.Size != 2097152:
		t.Fatalf("l2size: %+v", c)
	case c.D.VictimCacheEntries != 4 || c.D.Stream == nil || c.D.Stream.Ways != 2 || c.D.Stream.Depth != 8 || !c.D.Stream.Quasi:
		t.Fatalf("augmentation: %+v", c)
	}

	cfgs, err = ParseConfigs("isize=2048,iways=1,idepth=4,imisscache=0")
	if err != nil {
		t.Fatalf("i-side: %v", err)
	}
	c = cfgs[0].Config
	if c.L1I.Size != 2048 || c.L1D.Size != 0 || c.I.Stream == nil || c.I.Stream.Ways != 1 {
		t.Fatalf("i-side: %+v", c)
	}

	for _, bad := range []string{
		"nonsense",
		"size=big",
		"sys=huge",
		"misscache=2,victim=2", // rejected by sim validation
		"quasi=true",           // no stream buffers to apply it to
		"frobnicate=1",
	} {
		if _, err := ParseConfigs(bad); err == nil {
			t.Errorf("ParseConfigs(%q) accepted", bad)
		}
	}
}

// TestParseConfigsLimits pins every size and count key at its limit
// (accepted) and one step past it (rejected by the limit check, before
// any system is built).
func TestParseConfigsLimits(t *testing.T) {
	bytesAt, bytesPast := fmt.Sprint(MaxCacheBytes), fmt.Sprint(2*MaxCacheBytes)
	auxAt, auxPast := fmt.Sprint(MaxAuxEntries), fmt.Sprint(MaxAuxEntries+1)
	waysAt, waysPast := fmt.Sprint(MaxStreamWays), fmt.Sprint(MaxStreamWays+1)
	depthAt, depthPast := fmt.Sprint(MaxStreamDepth), fmt.Sprint(MaxStreamDepth+1)
	// A 1 MiB cache with 4-byte lines holds exactly MaxCacheLines lines.
	for _, tc := range []struct{ at, past string }{
		{"size=" + bytesAt, "size=" + bytesPast},
		{"isize=" + bytesAt, "isize=" + bytesPast},
		{"dsize=" + bytesAt, "dsize=" + bytesPast},
		{"l2size=" + bytesAt, "l2size=" + bytesPast},
		{"size=1048576,line=4", "size=1048576,line=2"},
		{"l2line=4", "l2line=2"},
		{"misscache=" + auxAt, "misscache=" + auxPast},
		{"imisscache=" + auxAt, "imisscache=" + auxPast},
		{"victim=" + auxAt, "victim=" + auxPast},
		{"ivictim=" + auxAt, "ivictim=" + auxPast},
		{"l2victim=" + auxAt, "l2victim=" + auxPast},
		{"ways=" + waysAt, "ways=" + waysPast},
		{"iways=" + waysAt, "iways=" + waysPast},
		{"ways=4,depth=" + depthAt, "ways=4,depth=" + depthPast},
		{"iways=1,idepth=" + depthAt, "iways=1,idepth=" + depthPast},
	} {
		if _, err := ParseConfigs(tc.at); err != nil {
			t.Errorf("ParseConfigs(%q) at the limit: %v", tc.at, err)
		}
		if _, err := ParseConfigs(tc.past); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("ParseConfigs(%q) past the limit: err %v, want a limit error", tc.past, err)
		}
	}
}

// TestParseConfigsBuildsNothing pins that validating a job's
// configurations allocates none of their caches: building the five
// systems of an upload job would allocate over 1 MB.
func TestParseConfigsBuildsNothing(t *testing.T) {
	const configs = "sys=baseline;sys=improved;victim=4;misscache=4;ways=4"
	if _, err := ParseConfigs(configs); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		ParseConfigs(configs)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 64<<10 {
		t.Errorf("ParseConfigs allocated %d bytes per call", per)
	}
}

// TestCacheKeyCanonical is the cache key's property test: specs that
// build the same systems share one key however they are spelled, and
// specs that share a key replay to bit-identical results.
func TestCacheKeyCanonical(t *testing.T) {
	groups := [][]string{
		{"", "sys=baseline", "size=4096", "line=16,assoc=1", "ways=0", "depth=8", "victim=0,misscache=0"},
		{"victim=4,size=4096", "size=4096,victim=4", " victim = 4 "},
		{"ways=4", "ways=4,depth=4", "depth=8,ways=4,depth=4"},
		{"sys=improved", "victim=4,ways=4,iways=1", "iways=1,idepth=4,ways=4,victim=4,sys=baseline,sys=improved"},
		{"size=8192,line=32", "line=32,isize=8192,dsize=8192"},
	}
	// Random spellings of random systems: a subset of the pool in two
	// shuffled orders, and once more behind the baseline's own values.
	pool := []string{"size=8192", "line=32", "assoc=2", "victim=2", "ways=2", "depth=8", "iways=1", "ivictim=4", "l2assoc=2"}
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 8; g++ {
		var kvs []string
		for _, kv := range pool {
			if rng.Intn(2) == 0 {
				kvs = append(kvs, kv)
			}
		}
		var group []string
		for i := 0; i < 2; i++ {
			rng.Shuffle(len(kvs), func(a, b int) { kvs[a], kvs[b] = kvs[b], kvs[a] })
			group = append(group, strings.Join(kvs, ","))
		}
		group = append(group, strings.Join(append([]string{"size=4096,line=16,assoc=1,depth=4,victim=0"}, kvs...), ","))
		groups = append(groups, group)
	}

	var all []string
	for _, g := range groups {
		all = append(all, g...)
	}
	cfgs, err := ParseConfigs(strings.Join(all, ";"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(cfgs))
	for i := range cfgs {
		keys[i] = (&Spec{Benchmark: "ccom", Scale: 0.02, Configs: cfgs[i : i+1]}).CacheKey("v1")
	}
	start, fixed := 0, map[string]int{}
	for gi, g := range groups {
		for i, spec := range g {
			if keys[start+i] != keys[start] {
				t.Errorf("group %d: %q and %q build the same system but key differently", gi, g[0], spec)
			}
		}
		if gi < 5 { // the hand-written groups are distinct systems
			if prev, ok := fixed[keys[start]]; ok {
				t.Errorf("groups %d and %d build different systems but share a key", prev, gi)
			}
			fixed[keys[start]] = gi
		}
		start += len(g)
	}

	body, err := DefaultRunner(context.Background(), &Spec{Benchmark: "ccom", Scale: 0.02, Configs: cfgs}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	for a := range cfgs {
		for b := a + 1; b < len(cfgs); b++ {
			if keys[a] == keys[b] && body.Configs[a].Results != body.Configs[b].Results {
				t.Errorf("%q and %q share a key but replay differently:\n%+v\n%+v",
					cfgs[a].Label, cfgs[b].Label, body.Configs[a].Results, body.Configs[b].Results)
			}
		}
	}
}
