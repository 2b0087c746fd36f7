package hierarchy

import (
	"jouppi/internal/cache"
	"jouppi/internal/core"
	"jouppi/internal/memtrace"
)

// Cluster is one consumer of a multi-system replay: the systems whose
// first-level caches hold the same state replay each chunk together,
// probing and filling one L1I and one L1D per access through a
// core.Group per side. Each system keeps its own helper structures, L2,
// memory counters and taps. A cluster of one replays its system as
// System.Access does.
type Cluster struct {
	systems []*System
	i, d    *core.Group // nil for a cluster of one
}

// Clusters groups systems for one replay by their (L1I, L1D) pair and
// returns one chunk consumer per cluster, in the order the clusters
// first appear. A system joins another's cluster when both its
// first-level caches are write-through, hold the same state as that
// system's (cache.Cache.SameState) and carry no counters or set heatmap
// (cache.Cache.Instrumented; System.AttachTelemetry attaches counters),
// and when it is passed only once. The cluster probes its first
// system's caches.
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

// group puts a cluster of two or more systems on its first system's
// caches.
func (c *Cluster) group() {
	if len(c.systems) < 2 {
		return
	}
	ifes := make([]*core.Level, len(c.systems))
	dfes := make([]*core.Level, len(c.systems))
	for j, s := range c.systems {
		ifes[j], dfes[j] = s.ife, s.dfe
	}
	var err error
	lead := c.systems[0]
	if c.i, err = core.GroupOn(lead.ife.Cache(), ifes...); err == nil {
		c.d, err = core.GroupOn(lead.dfe.Cache(), dfes...)
	}
	if err != nil {
		panic(err) // unreachable: shareable and SameState checked both sides
	}
}

// release ends the grouping (see Clusters).
func (c *Cluster) release() {
	if c.i == nil {
		return
	}
	c.i.Release()
	c.d.Release()
	c.i, c.d = nil, nil
	lead := c.systems[0]
	for _, s := range c.systems[1:] {
		s.ife.Cache().CopyState(lead.ife.Cache())
		s.dfe.Cache().CopyState(lead.dfe.Cache())
	}
}

// Consume implements fanout.Consumer: it replays every access of the
// chunk, in order, into each system of the cluster.
func (c *Cluster) Consume(chunk []memtrace.Access) {
	if c.i == nil {
		s := c.systems[0]
		for _, a := range chunk {
			s.Access(a)
		}
		return
	}
	for _, a := range chunk {
		switch a.Kind {
		case memtrace.Ifetch:
			c.i.Access(uint64(a.Addr), false)
		case memtrace.Load:
			c.d.Access(uint64(a.Addr), false)
		case memtrace.Store:
			c.d.Access(uint64(a.Addr), true)
		}
	}
}
