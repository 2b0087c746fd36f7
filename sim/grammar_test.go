package sim

import (
	"strings"
	"testing"
)

// grammarSeeds are the configuration specs the repository uses: its
// tests, README, and the benchmark's cli-sweep, svc-upload and svc-mixed
// workloads. They seed FuzzConfigGrammar and pin Format's output.
var grammarSeeds = []string{
	// cachesim -fanout, cachesimd and jouppisim tests.
	"", ";", "; victim=4 ; misscache=4 ; ways=4", ";victim=2;victim=4,ways=4", ";victim=4",
	";ways=0;depth=8", "entries=4", "misscache=2,victim=2", "quasi=perhaps", "quasi=true",
	"size=1000", "victim", "victim=-2;ways=-1", "victim=2", "victim=4", "victim=4;ways=2,depth=-1",
	"victim=many", "ways=0,stride=true", "ways=4,quasi=true", "turbo:9", "victim:4", "stream:4x8",
	"sys=baseline", "sys=improved", "misscache=2", "ways=4,depth=8", " ways = 4 , quasi = true ",
	"isize=2048", "iways=1", "ivictim=4", "l2size=2097152", "l2victim=4", "size=8192", "dsize=8192",
	"line=32,dassoc=2", "isize=2048,iways=1,idepth=4,imisscache=0", "misscache=2; misscache=4 ;sys=improved",
	"size=8192,line=32,assoc=2,l2size=2097152,victim=4,ways=2,depth=8,quasi=true",
	"nonsense", "size=big", "sys=huge", "frobnicate=1", "misscache=2;sys=improved",
	"misscache=2;misscache=4", "misscache=2;victim=4", "size=8388608", "size=1048576,line=4",
	"size=268435456;victim=50000000;ways=100000,depth=1000", "l2line=4", "ways=64", "iways=1,idepth=64",
	"victim=4,size=4096", "size=4096,victim=4", "line=16,assoc=1", "depth=8",
	// README.
	"; misscache=4 ; victim=4 ; victim=4,ways=4", "; misscache=4 ; victim=4",
	// bench: sweepConfigs, uploadSpecs, mixedSpecs.
	";misscache=4;victim=1;victim=4;ways=1;ways=4;victim=4,ways=4;assoc=4",
	"sys=baseline;sys=improved;victim=4;misscache=4;ways=4",
	"sys=baseline;sys=improved;victim=4;ways=4",
}

func TestFormatCanonicalSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"", ""},
		{"sys=baseline", ""},
		{"size=4096,line=16,assoc=1", ""},
		{"ways=0", ""},
		{"depth=8", ""},
		{"sys=improved", "victim=4,ways=4,iways=1"},
		{" victim = 4 , size = 4096 ", "victim=4"},
		{"ways=4,depth=4", "ways=4"},
		{"depth=8,ways=2,quasi=true", "ways=2,depth=8,quasi=true"},
		{"line=32,isize=8192,dsize=8192", "size=8192,line=32"},
		{"size=8192,dsize=4096", "isize=8192"},
		{"l2victim=4,l2size=2097152,assoc=2", "assoc=2,l2size=2097152,l2victim=4"},
		{"iways=1,stride=true,imisscache=0", "iways=1,stride=true"},
		{"sys=improved,sys=baseline", ""},
	} {
		c, err := ParseConfig(tc.spec, BaselineSystem())
		if err != nil {
			t.Errorf("ParseConfig(%q): %v", tc.spec, err)
			continue
		}
		if got := Format(c); got != tc.want {
			t.Errorf("Format(ParseConfig(%q)) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestParseConfigRules(t *testing.T) {
	// A spec is applied over its base, and sys= starts over from a preset.
	base := Config{D: Augmentation{Stream: &StreamOptions{Depth: 8}}}
	c, err := ParseConfig("ways=4", base)
	if err != nil || c.D.Stream == nil || c.D.Stream.Ways != 4 || c.D.Stream.Depth != 8 {
		t.Errorf("ways=4 over depth 8 = %+v, %v; want 4 ways of depth 8", c.D.Stream, err)
	}
	if c, err := ParseConfig("sys=baseline,ways=4", base); err != nil || Format(c) != "ways=4" {
		t.Errorf("sys=baseline,ways=4 over depth 8 = %q, %v; want the preset's depth", Format(c), err)
	}
	for _, tc := range []struct{ spec, want string }{
		{"victim", "want key=value"},
		{"entries=4", "unknown key"},
		{"victim=many", "victim"},
		{"quasi=perhaps", "quasi"},
		{"sys=huge", "unknown preset"},
		{"quasi=true", "need stream buffers"},
		{"ways=0,stride=true", "need stream buffers"},
		{"victim=-2", "victim must not be negative"},
		{"idepth=-1", "idepth must not be negative"},
		{"l2victim=-1", "l2victim must not be negative"},
		{"misscache=2,ways=1", "misscache cannot be combined"},
		{"imisscache=2,ivictim=2", "imisscache cannot be combined"},
	} {
		if _, err := ParseConfig(tc.spec, BaselineSystem()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseConfig(%q) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}
	// Labels are the trimmed spec text; the empty spec is the baseline.
	cfgs, err := ParseConfigs(" ; victim=4 ", BaselineSystem())
	if err != nil || len(cfgs) != 2 || cfgs[0].Label != "baseline" || cfgs[1].Label != "victim=4" {
		t.Errorf("ParseConfigs labels = %+v, %v", cfgs, err)
	}
}

// FuzzConfigGrammar holds the grammar to its contract: parsing never
// panics, and every spec that parses has a Format that reparses to a
// configuration building the same system, and that is its own Format.
func FuzzConfigGrammar(f *testing.F) {
	for _, s := range grammarSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		cfgs, err := ParseConfigs(list, BaselineSystem())
		if err != nil {
			return
		}
		for _, c := range cfgs {
			canon := Format(c.Config)
			again, err := ParseConfig(canon, BaselineSystem())
			if err != nil {
				t.Fatalf("%q formats as %q, which does not parse: %v", c.Label, canon, err)
			}
			want, err := c.Config.Hierarchy()
			if err != nil {
				t.Fatalf("%q parsed but does not convert: %v", c.Label, err)
			}
			if got, _ := again.Hierarchy(); got != want {
				t.Fatalf("%q formats as %q, which builds another system:\n got %+v\nwant %+v", c.Label, canon, got, want)
			}
			if got := Format(again); got != canon {
				t.Fatalf("%q formats as %q, which formats as %q", c.Label, canon, got)
			}
		}
	})
}
