package sim

import (
	"context"
	"testing"

	"jouppi/internal/introspect"
)

// fullIntrospection enables every probe view.
var fullIntrospection = Introspection{
	Window:    1 << 12,
	Heatmap:   true,
	MissEvery: 8,
	MissCap:   256,
}

// introspectedReplay replays ccom at scale 0.05 through one system per
// configuration, in one Replay call, with o attached to every system.
func introspectedReplay(t *testing.T, ctx context.Context, o Introspection, cfgs ...Config) ([]Results, []*introspect.SystemProbe, error) {
	t.Helper()
	src, err := Benchmark("ccom", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*System, len(cfgs))
	probes := make([]*introspect.SystemProbe, len(cfgs))
	for i, cfg := range cfgs {
		if systems[i], err = NewSystem(cfg); err != nil {
			t.Fatal(err)
		}
		probes[i] = systems[i].AttachIntrospection(o)
	}
	if err := Replay(ctx, src, systems...); err != nil {
		return nil, nil, err
	}
	results := make([]Results, len(systems))
	for i, sys := range systems {
		results[i] = sys.Results()
	}
	return results, probes, nil
}

// TestIntrospectionEquivalence pins introspection at the public API: a
// system with every probe view attached replays to bit-identical
// Results, and its probe sees every access.
func TestIntrospectionEquivalence(t *testing.T) {
	for name, cfg := range map[string]Config{
		"baseline": BaselineSystem(),
		"improved": ImprovedSystem(),
	} {
		t.Run(name, func(t *testing.T) {
			plain, err := RunBenchmark("ccom", 0.05, cfg)
			if err != nil {
				t.Fatal(err)
			}
			probed, probes, err := introspectedReplay(t, context.Background(), fullIntrospection, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bitsOf(plain) != bitsOf(probed[0]) {
				t.Errorf("introspection changed simulated numbers:\nplain  %+v\nprobed %+v", plain, probed[0])
			}
			probe := probes[0]
			if probe.I.Accesses()+probe.D.Accesses() != plain.I.Accesses+plain.D.Accesses {
				t.Error("probe did not see every access")
			}
			if len(probe.D.Windows()) == 0 || probe.D.Heat() == nil || len(probe.D.Events()) == 0 {
				t.Error("probe views empty after an introspected replay")
			}
		})
	}
}

// TestIntrospectionFanoutBitIdentical pins fan-out safety: a fan-out
// replay with per-consumer probes produces the same Results as
// sequential replays, and each consumer's probe matches the probe of a
// standalone introspected replay of the same configuration.
func TestIntrospectionFanoutBitIdentical(t *testing.T) {
	cfgs := []Config{
		BaselineSystem(),
		{D: Augmentation{VictimCacheEntries: 4}},
	}
	o := Introspection{Window: 1 << 12, Heatmap: true, MissEvery: 8}
	results, probes, err := introspectedReplay(t, context.Background(), o, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		seqs, seqProbes, err := introspectedReplay(t, context.Background(), o, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq, seqProbe := seqs[0], seqProbes[0]
		if results[i] != seq {
			t.Errorf("config %d: fan-out results differ from sequential:\nfan-out    %+v\nsequential %+v", i, results[i], seq)
		}
		fw, sw := probes[i].D.Windows(), seqProbe.D.Windows()
		if len(fw) != len(sw) {
			t.Fatalf("config %d: %d fan-out windows vs %d sequential", i, len(fw), len(sw))
		}
		for w := range fw {
			if fw[w] != sw[w] {
				t.Errorf("config %d window %d differs under fan-out:\n%+v\n%+v", i, w, fw[w], sw[w])
			}
		}
		fh, sh := probes[i].D.Heat(), seqProbe.D.Heat()
		for s := range fh {
			if fh[s] != sh[s] {
				t.Errorf("config %d set %d heat differs under fan-out: %+v vs %+v", i, s, fh[s], sh[s])
				break
			}
		}
	}
	// The victim cache must actually change what the probes see (the
	// two consumers are independent).
	if probes[0].D.Windows()[0] == probes[1].D.Windows()[0] {
		t.Error("baseline and victim-cache probes identical — consumers not independent")
	}
}

func TestIntrospectionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := introspectedReplay(t, ctx, Introspection{}, Config{}); err == nil {
		t.Error("cancelled context must abort the introspected replay")
	}
}
