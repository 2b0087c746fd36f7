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
// caches first appear. A write-back cache is an error.
func Groups(levels ...*Level) ([]*Group, error) {
	for _, l := range levels {
		if l.writeBack {
			return nil, errWriteBack(l.l1)
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
		g.join(l)
	}
	return out, nil
}

// GroupOn returns a Group that probes and fills c for levels whose own
// caches may be other caches of c's configuration: each must hold what c
// holds (cache.Cache.SameState), which the group does not check. Their
// own caches stay untouched until Release; a write-back cache or another
// configuration is an error.
func GroupOn(c *cache.Cache, levels ...*Level) (*Group, error) {
	if c.Config().WritePolicy == cache.WriteBack {
		return nil, errWriteBack(c)
	}
	for _, l := range levels {
		if l.l1.Config() != c.Config() {
			return nil, fmt.Errorf("core: cache %q has another configuration than the group's", l.l1.Config().Name)
		}
	}
	g := &Group{l1: c}
	for _, l := range levels {
		g.join(l)
	}
	return g, nil
}

func errWriteBack(c *cache.Cache) error {
	return fmt.Errorf("core: cache %q is write-back: its contents depend on the helper structures", c.Config().Name)
}

// join adds l, counting its accesses on from the ones it has made.
func (g *Group) join(l *Level) {
	l.shared, l.base = &g.accesses, l.stats.Accesses-g.accesses
	g.levels = append(g.levels, l)
}

// Release ends the group: each level's Stats take in the group's
// accesses and the level takes its own accesses again, on its own
// cache. A level that joined through GroupOn finds that cache as it
// left it, so the caller copies the group's cache into it
// (cache.Cache.CopyState) before the level's next access.
func (g *Group) Release() {
	for _, l := range g.levels {
		l.sync()
		l.shared = nil
	}
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
