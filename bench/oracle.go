package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// feNums are the counters cachesim prints for one configuration.
type feNums struct {
	Accesses, L1Hits, L1Misses, AuxHits      uint64
	VictimHits, MissCacheHits, StreamHits    uint64
	FullMisses, PrefetchIssued, PrefetchUsed uint64
	StallCycles                              uint64
}

// sideNums and sysNums hold the numbers of sim.Results under the same
// field names, so the daemon's result JSON decodes into them. Fields the
// program may add to its results later are not compared.
type sideNums struct {
	Accesses, Misses, FullMisses, AuxHits uint64
	VictimHits, MissCacheHits, StreamHits uint64
	MissRate                              float64
}

type sysNums struct {
	Instructions                     uint64
	I, D                             sideNums
	L2DemandAccesses, L2DemandMisses uint64
	L2PrefetchAccesses, TotalTime    uint64
	PercentOfPotential               float64
}

// same compares exactly, floats bit for bit.
func (a sideNums) same(b sideNums) bool {
	rate := math.Float64bits(a.MissRate) == math.Float64bits(b.MissRate)
	a.MissRate, b.MissRate = 0, 0
	return rate && a == b
}

// same compares exactly, floats bit for bit.
func (a sysNums) same(b sysNums) bool {
	pot := math.Float64bits(a.PercentOfPotential) == math.Float64bits(b.PercentOfPotential)
	sides := a.I.same(b.I) && a.D.same(b.D)
	a.PercentOfPotential, b.PercentOfPotential = 0, 0
	a.I, a.D, b.I, b.D = sideNums{}, sideNums{}, sideNums{}, sideNums{}
	return pot && sides && a == b
}

// resultsDigest identifies reference results by their numbers alone.
// encoding/json writes each float in the shortest form that reads back
// to the same bits, so equal digests mean bit-equal numbers.
func resultsDigest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers always encode
	}
	return digest(data)
}

// goldenJSON pins the reference results of seeds 1 and 2 for each
// workload. A change that moves any simulated number fails these seeds;
// one that means to must say so and refresh the file.
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden reports a mismatch between a workload's reference results
// and the pinned ones for seed.
func checkGolden(seed uint64, workload, got string) error {
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %v", err)
	}
	want, ok := golden[fmt.Sprint(seed)][workload]
	if !ok || want == got {
		return nil
	}
	return fmt.Errorf("%s seed %d: reference results digest %s, golden.json pins %s", workload, seed, got, want)
}
