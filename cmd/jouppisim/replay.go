package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"jouppi/internal/introspect"
	"jouppi/internal/telemetry"
	"jouppi/internal/textplot"
	"jouppi/sim"
)

// runReplay is jouppisim's single-system mode: replay one benchmark
// through one configuration with an introspection probe attached and
// print the run summary plus the requested time/space views.
func runReplay(ctx context.Context, stdout, stderr io.Writer,
	bench, spec string, scale float64, phase int, heatmap bool, missDump string) int {
	cfg, err := sim.ParseConfig(spec, sim.BaselineSystem())
	if err != nil {
		fmt.Fprintf(stderr, "jouppisim: bad -system %q: %v (want a configuration spec such as sys=improved, victim=4 or ways=4,depth=8)\n", spec, err)
		return exitUsage
	}
	intro := sim.Introspection{Window: phase, Heatmap: heatmap}
	if phase == 0 {
		intro.Window = -1
	}
	if missDump != "" {
		intro.MissEvery = 1
	}
	res, probe, err := sim.RunBenchmarkIntrospected(ctx, bench, scale, cfg, intro)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(stderr, "jouppisim: interrupted:", err)
			return exitInterrupted
		}
		fmt.Fprintln(stderr, "jouppisim:", err)
		return exitUsage
	}

	fmt.Fprintf(stdout, "benchmark %s at scale %g through %s\n", bench, scale, spec)
	side := func(name string, s sim.SideResults) {
		fmt.Fprintf(stdout, "%s: %d accesses, %d misses, %d aux hits, %d full misses (rate %.4f)\n",
			name, s.Accesses, s.Misses, s.AuxHits, s.FullMisses, s.MissRate)
	}
	side("L1I", res.I)
	side("L1D", res.D)
	fmt.Fprintf(stdout, "execution: %d instruction-times for %d instructions (%.1f%% of potential)\n",
		res.TotalTime, res.Instructions, res.PercentOfPotential)

	if phase > 0 {
		series := []textplot.Series{
			introspect.PhaseSeries("L1I", probe.I.Windows()),
			introspect.PhaseSeries("L1D", probe.D.Windows()),
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, introspect.RenderPhases(
			fmt.Sprintf("miss rate per %d-access window", phase), series, 72, 16))
	}
	if heatmap {
		for _, sp := range []struct {
			name string
			p    *introspect.Probe
		}{{"L1I", probe.I}, {"L1D", probe.D}} {
			heat := sp.p.Heat()
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.RenderHeat(sp.name+" misses per set", heat, introspect.HeatMisses, 64))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.RenderHeat(sp.name+" conflict evictions per set", heat, introspect.HeatEvictions, 64))
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, introspect.TopSetsTable(heat, introspect.HeatEvictions, 8))
		}
	}
	if missDump != "" {
		f, err := os.Create(missDump)
		if err != nil {
			fmt.Fprintln(stderr, "jouppisim:", err)
			return exitFailure
		}
		j := telemetry.NewJournal(f)
		probe.I.EmitMissEvents(j, "inst")
		probe.D.EmitMissEvents(j, "data")
		err = j.Err()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "jouppisim:", err)
			return exitFailure
		}
		fmt.Fprintf(stdout, "miss dump: %s (%d inst + %d data events, %d dropped)\n",
			missDump, len(probe.I.Events()), len(probe.D.Events()),
			probe.I.Dropped()+probe.D.Dropped())
	}
	return exitOK
}
