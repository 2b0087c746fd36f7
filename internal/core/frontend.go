// Package core implements the paper's hardware contributions: miss caches
// (§3.1), victim caches (§3.2), single- and multi-way stream buffers
// (§4.1–4.2), and Level, which attaches the ones an Aux declares to a
// first-level direct-mapped cache. It also implements the extensions the
// paper lists as future work: quasi-sequential lookup and
// stride-predicting stream buffers.
//
// A FrontEnd models one first-level cache (instruction or data) plus its
// augmentation. Every access is classified as an L1 hit, an augmentation
// hit (one-cycle penalty instead of a full miss), or a full miss that
// fetches from the next level. Front-ends keep a cycle clock — one cycle
// per access plus the stall cycles of misses — so that structures with
// fill latency (stream buffers) can model line availability.
//
// Levels that share one write-through cache can replay as a Group,
// which probes and fills the cache once per access: its contents do not
// depend on the helper structures, which see only the misses.
package core

import (
	"fmt"

	"jouppi/internal/cache"
)

// Fetcher receives line-granularity fetch requests destined for the next
// memory level. prefetch distinguishes stream-buffer prefetches from
// demand fetches. lineAddr is in units of the front-end's L1 line size.
type Fetcher func(lineAddr uint64, prefetch bool)

// Timing holds the cycle costs a front-end charges. All values are in
// cycles, which the performance model equates with instruction times
// (paper §2: penalties of 24 and 320 instruction times).
type Timing struct {
	// MissPenalty is the cost of a demand fetch from the next level
	// (paper baseline: 24).
	MissPenalty int
	// AuxPenalty is the cost of a hit in a miss cache, victim cache, or
	// ready stream-buffer entry (paper: 1).
	AuxPenalty int
	// FillLatency is the completion latency of a stream-buffer prefetch.
	// Zero means "same as MissPenalty".
	FillLatency int
	// FillInterval is the pipelined next-level port's issue interval: a
	// new prefetch request can be issued every FillInterval cycles
	// (paper example: 4).
	FillInterval int
}

// DefaultTiming returns the paper's baseline first-level timing.
func DefaultTiming() Timing {
	return Timing{MissPenalty: 24, AuxPenalty: 1, FillLatency: 24, FillInterval: 4}
}

func (t Timing) withDefaults() Timing {
	if t.MissPenalty == 0 {
		t.MissPenalty = 24
	}
	if t.AuxPenalty == 0 {
		t.AuxPenalty = 1
	}
	if t.FillLatency == 0 {
		t.FillLatency = t.MissPenalty
	}
	if t.FillInterval == 0 {
		t.FillInterval = 4
	}
	return t
}

// ServedBy identifies which structure satisfied an access, so observers
// (telemetry, tracing) can attribute hits without re-deriving them from
// stats deltas.
type ServedBy uint8

// The possible access servers, in probe order.
const (
	// ServedL1 is a plain first-level hit.
	ServedL1 ServedBy = iota
	// ServedMissCache / ServedVictim / ServedStream are augmentation hits
	// in the respective structure.
	ServedMissCache
	ServedVictim
	ServedStream
	// ServedMemory is a full miss: a demand fetch from the next level.
	ServedMemory
)

// String returns the server's name.
func (s ServedBy) String() string {
	switch s {
	case ServedL1:
		return "l1"
	case ServedMissCache:
		return "miss-cache"
	case ServedVictim:
		return "victim-cache"
	case ServedStream:
		return "stream-buffer"
	case ServedMemory:
		return "memory"
	default:
		return fmt.Sprintf("ServedBy(%d)", uint8(s))
	}
}

// Result describes how a single access resolved.
type Result struct {
	// L1Hit is true when the first-level cache itself hit.
	L1Hit bool
	// AuxHit is true when an augmentation satisfied an L1 miss.
	AuxHit bool
	// Stall is the number of stall cycles charged beyond the single
	// issue cycle (0 on an L1 hit).
	Stall int
	// Served names the structure that satisfied the access (the L1
	// itself, one of the augmentations, or the next memory level).
	Served ServedBy
}

// FullMiss reports whether the access required a demand fetch from the
// next level.
func (r Result) FullMiss() bool { return !r.L1Hit && !r.AuxHit }

// Stats accumulates front-end activity.
type Stats struct {
	Accesses uint64
	L1Hits   uint64
	L1Misses uint64

	// AuxHits counts L1 misses satisfied by any augmentation.
	AuxHits uint64
	// VictimHits / MissCacheHits / StreamHits break AuxHits down by
	// which structure satisfied the access.
	VictimHits    uint64
	MissCacheHits uint64
	StreamHits    uint64
	// StreamInFlightHits counts the subset of StreamHits whose line was
	// still in flight and stalled the access for part of the fill
	// latency.
	StreamInFlightHits uint64
	// OverlapHits counts victim-cache hits where a stream buffer also
	// held the requested line (the paper's §5 overlap statistic).
	OverlapHits uint64

	// Fetches counts demand line fetches from the next level.
	Fetches uint64
	// PrefetchIssued counts stream-buffer prefetch requests sent to the
	// next level; PrefetchUsed counts prefetched lines that satisfied a
	// subsequent access.
	PrefetchIssued uint64
	PrefetchUsed   uint64

	// Writebacks counts dirty lines pushed down from L1 or an
	// augmentation structure.
	Writebacks uint64

	// StallCycles is the total stall time charged (aux penalties, full
	// miss penalties, in-flight waits).
	StallCycles uint64
}

// FullMisses returns the number of accesses that required a demand fetch:
// L1 misses not covered by any augmentation.
func (s Stats) FullMisses() uint64 { return s.L1Misses - s.AuxHits }

// MissRate returns the effective miss rate after augmentation: full misses
// per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.FullMisses()) / float64(s.Accesses)
}

// RawMissRate returns the L1 miss rate before augmentation credit.
func (s Stats) RawMissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Accesses)
}

// Cycles returns the total cycle count: one per access plus stalls.
func (s Stats) Cycles() uint64 { return s.Accesses + s.StallCycles }

// FrontEnd is a first-level cache with optional augmentation hardware.
type FrontEnd interface {
	// Access performs one reference. write marks stores.
	Access(addr uint64, write bool) Result
	// Stats returns accumulated counters.
	Stats() Stats
	// Cache exposes the underlying L1 array (for inspection and
	// invariant checking in tests).
	Cache() *cache.Cache
	// Name identifies the configuration for reports.
	Name() string
}
