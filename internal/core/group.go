package core

import (
	"fmt"

	"jouppi/internal/cache"
	"jouppi/internal/memtrace"
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
//
// The group takes its references a chunk at a time (AccessChunk), in
// two passes: the shared cache probes and fills the whole chunk in one
// loop, then each level in turn resolves the chunk's misses. Each level
// sees what Level.Access would show it, fetches included, in the same
// order; but the levels' fetches are not interleaved, since a level's
// come after those of the level before it for the whole chunk. Levels
// whose fetches reach one shared next level, such as a system's I and D
// sides feeding one L2, take their chunks through a Split instead,
// which resolves miss by miss and so keeps every fetch in reference
// order.
type Group struct {
	l1       *cache.Cache
	accesses uint64 // completed; a level's miss sees the count before its access
	levels   []*Level
	misses   []cache.Miss // AccessChunk's, reused from chunk to chunk
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

// AccessChunk performs every reference of chunk, a store being a write,
// for every level of the group in the two passes the Group comment
// describes: cache.Cache.AccessChunk, then each level's misses. It
// returns the shared cache's misses, in a slice the next call reuses.
//
// observe, when non-nil, is called for every reference in order with
// whether it hit, each after the first level has resolved it and before
// that level resolves the next: how a reader of the first level's
// references, such as a classifier that its tap consults, keeps step.
func (g *Group) AccessChunk(chunk []memtrace.Access, observe func(i int, hit bool)) []cache.Miss {
	g.misses = g.l1.AccessChunk(chunk, g.misses[:0])
	start := g.accesses
	for _, l := range g.levels {
		g.resolve(l, start, len(chunk), observe)
		observe = nil
	}
	g.accesses = start + uint64(len(chunk))
	return g.misses
}

// resolve has l resolve the misses of a chunk of n references whose
// first was access number start, with observe (see AccessChunk).
func (g *Group) resolve(l *Level, start uint64, n int, observe func(int, bool)) {
	next := 0 // the first reference not yet observed
	for _, m := range g.misses {
		for ; observe != nil && next < m.Index; next++ {
			observe(next, true)
		}
		g.accesses = start + uint64(m.Index)
		l.sync()
		l.miss(m.Addr, m.Victim)
		g.accesses++ // the level's own count, should observe read its Stats
		if observe != nil {
			observe(m.Index, false)
			next = m.Index + 1
		}
	}
	for ; observe != nil && next < n; next++ {
		observe(next, true)
	}
}

// Flush flushes every level of the group (see Level.Flush).
func (g *Group) Flush() {
	for _, l := range g.levels {
		l.Flush()
	}
}

// Split is two groups that take one access stream together, split by
// kind as a system's first level is: ifetches go to the I group's cache,
// loads and stores to the D group's, and other kinds to neither. Levels
// of the two groups may fetch from one shared next level, as a system's
// I and D sides feed one L2.
//
// A Split takes a chunk in two passes. One loop probes and fills both
// caches (cache.AccessSides) and lists the misses of both in reference
// order, each with its side and its index among that side's references.
// Then each miss in turn goes to every level of its side, each once its
// count is synced to the miss's side index, as Group.AccessChunk syncs a
// level to a miss's index. So every level sees what Level.Access would
// show it, and the fetches of all levels, I and D sides together, come in
// the order per-reference access makes them: a next level that levels
// share sees the same stream, and each level's Stats, clock and
// stream-buffer timing are as Access leaves them.
type Split struct {
	i, d   *Group
	misses []cache.SideMiss // AccessChunk's, reused from chunk to chunk
}

// SplitOn returns a Split that probes and fills ic for the I-side
// levels is and dc for the D-side levels ds, each side joined as GroupOn
// joins it: each level's own cache must hold what its side's cache
// holds. A write-back cache or another configuration is an error.
func SplitOn(ic, dc *cache.Cache, is, ds []*Level) (*Split, error) {
	i, err := GroupOn(ic, is...)
	if err != nil {
		return nil, err
	}
	d, err := GroupOn(dc, ds...)
	if err != nil {
		return nil, err
	}
	return &Split{i: i, d: d}, nil
}

// AccessChunk performs every reference of chunk, a store being a write,
// for every level in the two passes the Split comment describes.
func (s *Split) AccessChunk(chunk []memtrace.Access) {
	var n [2]int
	s.misses, n = cache.AccessSides(s.i.l1, s.d.l1, chunk, s.misses[:0])
	groups := [2]*Group{s.i, s.d}
	start := [2]uint64{s.i.accesses, s.d.accesses}
	for _, m := range s.misses {
		side := m.Side & 1
		g := groups[side]
		g.accesses = start[side] + uint64(m.Index)
		for _, l := range g.levels {
			l.sync()
			l.miss(m.Addr, m.Victim)
		}
	}
	s.i.accesses = start[0] + uint64(n[0])
	s.d.accesses = start[1] + uint64(n[1])
}

// Release ends both groups (see Group.Release).
func (s *Split) Release() {
	s.i.Release()
	s.d.Release()
}
