package core

import (
	"fmt"

	"jouppi/internal/cache"
)

// Group replays one access stream through levels that share one
// write-through cache, probing and filling it once per access: every
// miss fills the cache the same way whichever structure serves it, so
// its contents, hits and victims are the same for every level. On a
// miss each level's own helper structures see the access and the
// victim. A write-back cache is never shared, since a victim-cache swap
// can return a dirty line, so which lines are dirty depends on the
// helper structures. A grouped level's Stats, Flush, tap and counters
// work as before, but it takes its accesses only through its group.
type Group struct {
	l1       *cache.Cache
	accesses uint64 // completed; a level's miss sees the count before its access
	levels   []*Level
}

// Groups returns one Group per cache the levels are on, in the order the
// caches first appear. The levels must not have been accessed yet; a
// write-back cache is an error.
func Groups(levels ...*Level) ([]*Group, error) {
	for _, l := range levels {
		if l.writeBack {
			return nil, fmt.Errorf("core: cache %q is write-back: its contents depend on the helper structures", l.l1.Config().Name)
		}
	}
	var out []*Group
	byCache := map[*cache.Cache]*Group{}
	for _, l := range levels {
		g := byCache[l.l1]
		if g == nil {
			g = &Group{l1: l.l1}
			byCache[l.l1] = g
			out = append(out, g)
		}
		l.shared = &g.accesses
		g.levels = append(g.levels, l)
	}
	return out, nil
}

// Access performs one reference for every level of the group and
// reports whether it hit the shared cache.
func (g *Group) Access(addr uint64, write bool) bool {
	if g.l1.Probe(addr, write) {
		g.accesses++
		return true
	}
	victim := g.l1.Fill(addr, false)
	for _, l := range g.levels {
		l.sync()
		l.miss(addr, victim)
	}
	g.accesses++
	return false
}

// Flush flushes every level of the group (see Level.Flush).
func (g *Group) Flush() {
	for _, l := range g.levels {
		l.Flush()
	}
}
