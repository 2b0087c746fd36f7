package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jouppi/internal/telemetry"
)

// TestParseSystem drives -system through the shared configuration
// grammar: the forms it documents replay, and the retired
// victim:N / stream:WxD forms, bare preset names, and specs the grammar
// rejects are usage errors.
func TestParseSystem(t *testing.T) {
	for _, spec := range []string{"sys=baseline", "sys=improved", "victim=4", "misscache=2", "ways=4,depth=8", " ways = 4 , quasi = true "} {
		code, out, errOut := runCmd(t, "-replay", "met", "-scale", "0.01", "-system", spec)
		if code != exitOK || !strings.Contains(out, "through "+spec) {
			t.Errorf("-system %q: exit %d, stderr %q, output:\n%s", spec, code, errOut, out)
		}
	}
	for _, bad := range []string{"victim", "victim:4", "misscache:2", "stream:4x8", "improved", "victim=x", "ways=-1", "quasi=true", "iways=1,misscache=2,imisscache=2"} {
		code, _, errOut := runCmd(t, "-replay", "met", "-scale", "0.01", "-system", bad)
		if code != exitUsage || !strings.Contains(errOut, "bad -system") {
			t.Errorf("-system %q: exit %d, stderr %q (want a usage error)", bad, code, errOut)
		}
	}
}

// TestReplayNoStreamWithoutWays pins the grammar's stream-buffer rule in
// jouppisim: ways=0 and a bare depth build no stream buffer, so they
// replay exactly the baseline.
func TestReplayNoStreamWithoutWays(t *testing.T) {
	replay := func(spec string) string {
		code, out, errOut := runCmd(t, "-replay", "ccom", "-scale", "0.05", "-system", spec)
		if code != exitOK {
			t.Fatalf("-system %q: exit %d, stderr %q", spec, code, errOut)
		}
		_, body, _ := strings.Cut(out, "\n") // drop the header naming the spec
		return body
	}
	want := replay("sys=baseline")
	for _, spec := range []string{"ways=0", "depth=8"} {
		if got := replay(spec); got != want {
			t.Errorf("-system %s replays differently from the baseline:\n%s\nwant:\n%s", spec, got, want)
		}
	}
}

func TestReplayMode(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "miss.jsonl")
	code, out, errOut := runCmd(t, "-replay", "met", "-system", "victim=4",
		"-scale", "0.02", "-phase", "2048", "-heatmap", "-missdump", dump)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"benchmark met at scale 0.02 through victim=4",
		"L1I:", "L1D:", "% of potential",
		"miss rate per 2048-access window",
		"L1I misses per set",
		"L1D conflict evictions per set",
		"set  accesses  misses  evictions",
		"miss dump:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	var headers int
	for _, e := range events {
		if e.Event == "miss-dump" {
			headers++
			if e.Side != "inst" && e.Side != "data" {
				t.Errorf("miss-dump with side %q", e.Side)
			}
		}
	}
	if headers != 2 {
		t.Errorf("%d miss-dump headers, want one per side", headers)
	}
}

func TestReplayModeUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-replay", "met", "-run", "fig3-5"}, "mutually exclusive"},
		{[]string{"-replay", "met", "-scale", "0"}, "positive finite"},
		{[]string{"-replay", "met", "-system", "turbo:9"}, "bad -system"},
		{[]string{"-replay", "nosuch", "-scale", "0.02"}, "unknown benchmark"},
		{[]string{"-phase", "1024"}, "require -replay"},
		{[]string{"-heatmap"}, "require -replay"},
		{[]string{"-missdump", "x.jsonl"}, "require -replay"},
	} {
		code, _, errOut := runCmd(t, tc.args...)
		if code != exitUsage || !strings.Contains(errOut, tc.want) {
			t.Errorf("args %v: code %d, stderr %q (want %q)", tc.args, code, errOut, tc.want)
		}
	}
}

func TestReplayModeMissDumpCreateError(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "missing-dir", "miss.jsonl")
	code, _, errOut := runCmd(t, "-replay", "met", "-scale", "0.02", "-missdump", dump)
	if code != exitFailure {
		t.Errorf("uncreatable -missdump: code %d, stderr %q", code, errOut)
	}
}
