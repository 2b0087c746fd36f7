package hierarchy

import (
	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
)

// Cluster is one consumer of a multi-system replay: the systems whose
// first-level caches hold the same state replay each chunk together
// through one core.Split on the first system's L1I and L1D. One loop
// probes and fills both caches for the whole chunk, then the chunk's
// misses go in reference order, each to every system in turn, so each
// system's L2 sees its fetches as System.Access would make them. Each
// system keeps its own helper structures, L2, memory counters and taps.
// A system that cannot share its caches (see Clusters) replays alone,
// one System.Access per reference.
type Cluster struct {
	systems []*System
	split   *core.Split // nil for a system that replays alone
}

// Clusters groups systems for one replay by their (L1I, L1D) pair and
// returns one chunk consumer per cluster, in the order the clusters
// first appear. A system joins another's cluster when both its
// first-level caches are write-through, hold the same state as that
// system's (cache.Cache.SameState) and carry no counters or set heatmap
// (cache.Cache.Instrumented; System.AttachTelemetry attaches counters),
// and when it is passed only once. The cluster probes its first
// system's caches; a system that could share but finds no other takes
// the same path alone, on its own caches.
//
// Call release once the replay has ended, also when it was cancelled or
// panicked, and before any system is used again: it copies those
// caches' contents and Stats into the other systems' own caches and
// ends the grouping, so each system can then be replayed or inspected
// on its own.
func Clusters(systems ...*System) (clusters []*Cluster, release func()) {
	seen := make(map[*System]int, len(systems))
	for _, s := range systems {
		seen[s]++
	}
	var groupable []*Cluster // clusters that can take another system
	for _, s := range systems {
		shareable := seen[s] == 1 && s.shareable()
		if shareable {
			if c := joinable(groupable, s); c != nil {
				c.systems = append(c.systems, s)
				continue
			}
		}
		c := &Cluster{systems: []*System{s}}
		clusters = append(clusters, c)
		if shareable {
			groupable = append(groupable, c)
		}
	}
	for _, c := range groupable {
		c.group()
	}
	return clusters, func() {
		for _, c := range groupable {
			c.release()
		}
	}
}

// shareable reports whether s may probe another system's first-level
// caches: both are write-through and carry no counters, which
// AttachTelemetry attaches to them too.
func (s *System) shareable() bool {
	for _, fe := range []*core.Level{s.ife, s.dfe} {
		if c := fe.Cache(); c.Config().WritePolicy != cache.WriteThrough || c.Instrumented() {
			return false
		}
	}
	return true
}

// joinable returns the cluster among groupable whose caches hold the state
// of s's, or nil.
func joinable(groupable []*Cluster, s *System) *Cluster {
	for _, c := range groupable {
		lead := c.systems[0]
		if lead.ife.Cache().SameState(s.ife.Cache()) && lead.dfe.Cache().SameState(s.dfe.Cache()) {
			return c
		}
	}
	return nil
}

// group puts a cluster on its first system's caches.
func (c *Cluster) group() {
	ifes := make([]*core.Level, len(c.systems))
	dfes := make([]*core.Level, len(c.systems))
	for j, s := range c.systems {
		ifes[j], dfes[j] = s.ife, s.dfe
	}
	lead := c.systems[0]
	var err error
	if c.split, err = core.SplitOn(lead.ife.Cache(), lead.dfe.Cache(), ifes, dfes); err != nil {
		panic(err) // unreachable: shareable and SameState checked both sides
	}
}

// release ends the grouping (see Clusters).
func (c *Cluster) release() {
	if c.split == nil {
		return
	}
	c.split.Release()
	c.split = nil
	lead := c.systems[0]
	for _, s := range c.systems[1:] {
		s.ife.Cache().CopyState(lead.ife.Cache())
		s.dfe.Cache().CopyState(lead.dfe.Cache())
	}
}

// Consume implements fanout.Consumer: it replays every access of the
// chunk, in order, into each system of the cluster.
func (c *Cluster) Consume(chunk []memtrace.Access) {
	if c.split != nil {
		c.split.AccessChunk(chunk)
		return
	}
	s := c.systems[0]
	for _, a := range chunk {
		s.Access(a)
	}
}
