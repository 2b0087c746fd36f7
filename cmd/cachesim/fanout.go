package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/fanout"
	"jouppi/internal/memtrace"
	"jouppi/internal/telemetry"
)

// feSpec is one first-level configuration of a fan-out replay. Fields
// default to the main command-line flags, so a spec only names what it
// changes.
type feSpec struct {
	size, line, assoc              int
	missCache, victim, ways, depth int
	quasi, stride                  bool
}

// parseFanoutSpec parses one semicolon-separated element of -fanout: a
// comma-separated key=value list over the feSpec fields. The empty spec
// is the main-flag configuration, labelled "baseline".
func parseFanoutSpec(s string, def feSpec) (feSpec, string, error) {
	sp := def
	label := strings.TrimSpace(s)
	if label == "" {
		label = "baseline"
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return sp, "", fmt.Errorf("fanout spec %q: want key=value, got %q", s, kv)
		}
		bad := func(err error) (feSpec, string, error) {
			return sp, "", fmt.Errorf("fanout spec %q: %s: %v", s, key, err)
		}
		switch key {
		case "quasi", "stride":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return bad(err)
			}
			if key == "quasi" {
				sp.quasi = b
			} else {
				sp.stride = b
			}
		case "size", "line", "assoc", "misscache", "victim", "ways", "depth":
			n, err := strconv.Atoi(val)
			if err != nil {
				return bad(err)
			}
			switch key {
			case "size":
				sp.size = n
			case "line":
				sp.line = n
			case "assoc":
				sp.assoc = n
			case "misscache":
				sp.missCache = n
			case "victim":
				sp.victim = n
			case "ways":
				sp.ways = n
			case "depth":
				sp.depth = n
			}
		default:
			return sp, "", fmt.Errorf("fanout spec %q: unknown key %q (have size, line, assoc, misscache, victim, ways, depth, quasi, stride)", s, key)
		}
	}
	return sp, label, nil
}

// frontEnd builds the configured first-level system. The
// single-configuration replay and every fan-out spec build through it,
// so both reject the same flag values.
func (sp feSpec) frontEnd() (core.FrontEnd, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"misscache", sp.missCache}, {"victim", sp.victim}, {"ways", sp.ways}, {"depth", sp.depth}} {
		if f.v < 0 {
			return nil, fmt.Errorf("%s must not be negative, got %d", f.name, f.v)
		}
	}
	if sp.missCache > 0 && (sp.victim > 0 || sp.ways > 0) {
		return nil, fmt.Errorf("misscache cannot be combined with victim or ways")
	}
	l1cfg := cache.Config{Name: "L1", Size: sp.size, LineSize: sp.line, Assoc: sp.assoc}
	if err := l1cfg.Validate(); err != nil {
		return nil, err
	}
	l1 := cache.MustNew(l1cfg)
	timing := core.DefaultTiming()
	streamCfg := core.StreamConfig{Ways: sp.ways, Depth: sp.depth, Quasi: sp.quasi, DetectStride: sp.stride}
	switch {
	case sp.missCache > 0:
		return core.NewMissCache(l1, sp.missCache, nil, timing), nil
	case sp.victim > 0 && sp.ways > 0:
		return core.NewCombined(l1, sp.victim, streamCfg, nil, timing), nil
	case sp.victim > 0:
		return core.NewVictimCache(l1, sp.victim, nil, timing), nil
	case sp.ways > 0:
		return core.NewStreamBuffer(l1, streamCfg, nil, timing), nil
	default:
		return core.NewBaseline(l1, nil, timing), nil
	}
}

// feConsumer replays the kept references of each broadcast chunk into one
// front end.
type feConsumer struct {
	fe   core.FrontEnd
	keep func(memtrace.Access) bool
}

func (c *feConsumer) Consume(chunk []memtrace.Access) {
	for _, a := range chunk {
		if c.keep(a) {
			c.fe.Access(uint64(a.Addr), a.Kind == memtrace.Store)
		}
	}
}

// runFanout decodes the trace once and replays it through every spec'd
// configuration via the fan-out engine, printing one summary row per
// configuration. Statistics are bit-identical to running cachesim once
// per configuration; the decode cost is paid once.
func runFanout(stdout, stderr io.Writer, specs string, def feSpec,
	src memtrace.Source, keep func(memtrace.Access) bool,
	reg *telemetry.Registry, srcErr func() error,
	degr func() memtrace.Degradation, lenient bool) int {
	var labels []string
	var consumers []fanout.Consumer
	var fes []core.FrontEnd
	for _, s := range strings.Split(specs, ";") {
		sp, label, err := parseFanoutSpec(s, def)
		if err != nil {
			fmt.Fprintln(stderr, "cachesim:", err)
			return 2
		}
		fe, err := sp.frontEnd()
		if err != nil {
			fmt.Fprintf(stderr, "cachesim: fanout spec %q: %v\n", label, err)
			return 2
		}
		labels = append(labels, label)
		fes = append(fes, fe)
		consumers = append(consumers, &feConsumer{fe: fe, keep: keep})
	}

	eng := fanout.New(fanout.Config{})
	eng.AttachTelemetry(reg)
	if err := eng.Replay(context.Background(), src, consumers...); err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}
	if err := srcErr(); err != nil {
		fmt.Fprintln(stderr, "cachesim:", err)
		return 1
	}
	if lenient {
		memtrace.PublishDegradation(reg, degr())
		fmt.Fprintf(stdout, "degradation:     %s\n", degr())
	}

	fmt.Fprintf(stdout, "fan-out replay:  %d configurations, one trace pass\n", len(fes))
	wid := len("config")
	for _, l := range labels {
		if len(l) > wid {
			wid = len(l)
		}
	}
	fmt.Fprintf(stdout, "%-*s  %12s  %12s  %12s  %12s  %10s\n",
		wid, "config", "accesses", "L1 misses", "aux hits", "full misses", "miss rate")
	for i, fe := range fes {
		st := fe.Stats()
		fmt.Fprintf(stdout, "%-*s  %12d  %12d  %12d  %12d  %10.4f\n",
			wid, labels[i], st.Accesses, st.L1Misses, st.AuxHits, st.FullMisses(), st.MissRate())
	}
	return 0
}
