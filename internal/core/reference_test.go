package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"jouppi/internal/cache"
	"jouppi/internal/core"
)

// The reference models below are written straight from the paper's
// prose, as naive slices searched linearly, and share no code with the
// package under test or with internal/cache. FuzzFrontEndVsReference
// replays fuzzer-derived address streams through both and demands the
// same resolution for every access and the same final counts. It also
// pins the core.Tap contract: a tap sees exactly the misses it asks for,
// and attaching one changes no count.

// refL1 is a direct-mapped cache (§2): each line address maps to exactly
// one slot, line mod slots, and a fill replaces whatever the slot held.
type refL1 struct {
	lines []uint64
	valid []bool
}

func newRefL1(slots int) *refL1 {
	return &refL1{lines: make([]uint64, slots), valid: make([]bool, slots)}
}

func (c *refL1) hit(line uint64) bool {
	i := line % uint64(len(c.lines))
	return c.valid[i] && c.lines[i] == line
}

// fill installs line and returns the line it displaced, if any.
func (c *refL1) fill(line uint64) (old uint64, displaced bool) {
	i := line % uint64(len(c.lines))
	old, displaced = c.lines[i], c.valid[i]
	c.lines[i], c.valid[i] = line, true
	return old, displaced
}

// refLRU is a small fully-associative cache with LRU replacement, kept
// as a list from least to most recently used (§3.1: "a small
// fully-associative cache containing on the order of two to five cache
// lines").
type refLRU struct {
	lines []uint64
	size  int
}

func (b *refLRU) find(line uint64) int { return slices.Index(b.lines, line) }

func (b *refLRU) remove(line uint64) bool {
	i := b.find(line)
	if i < 0 {
		return false
	}
	b.lines = slices.Delete(b.lines, i, i+1)
	return true
}

// push makes line the most recently used entry, dropping the least
// recently used one when the cache is over size.
func (b *refLRU) push(line uint64) {
	if b.size == 0 {
		return
	}
	b.remove(line)
	b.lines = append(b.lines, line)
	if len(b.lines) > b.size {
		b.lines = b.lines[1:]
	}
}

// refStream is one sequential stream buffer (§4.1): a FIFO of prefetched
// line addresses with a comparator on the head entry only (on every
// entry under the quasi-sequential extension), and the next successive
// line it will prefetch.
type refStream struct {
	fifo    []uint64
	next    uint64
	lastUse uint64
}

// refCounts are the counts the model keeps.
type refCounts struct {
	accesses, l1Hits, l1Misses               uint64
	missCacheHits, victimHits, streamHits    uint64
	overlapHits, fetches, prefetches, pfUsed uint64
}

// refModel is a first-level cache with the helpers of §3–§5 in the
// paper's order: on a first-level miss the miss cache or victim cache is
// checked, then the heads of the stream buffers, and only then is the
// line fetched from the next level.
type refModel struct {
	l1      *refL1
	mc, vc  *refLRU // at most one is non-nil
	streams []refStream
	depth   int
	quasi   bool // a comparator on every stream-buffer entry
	now     uint64
	counts  refCounts
}

func (m *refModel) access(line uint64) core.ServedBy {
	m.now++
	m.counts.accesses++
	if m.l1.hit(line) {
		m.counts.l1Hits++
		return core.ServedL1
	}
	m.counts.l1Misses++

	// §3.1: a miss-cache hit reloads the first-level cache in one cycle;
	// the line stays in the miss cache, now most recently used.
	if m.mc != nil && m.mc.find(line) >= 0 {
		m.mc.push(line)
		m.l1.fill(line)
		m.counts.missCacheHits++
		return core.ServedMissCache
	}
	// §3.2: a victim-cache hit swaps the line with the first-level
	// victim. §5 counts the hits whose line a stream buffer also held.
	if m.vc != nil && m.vc.remove(line) {
		if w, _ := m.streamMatch(line); w >= 0 {
			m.counts.overlapHits++
		}
		m.fillL1(line)
		m.counts.victimHits++
		return core.ServedVictim
	}
	// §4.1/§4.2: a hit at a stream buffer's head moves the line into the
	// cache, the buffer shifts up, and one more successive line is
	// prefetched to fill the freed slot. Under the quasi-sequential
	// extension a hit past the head also drops the entries ahead of it,
	// and the buffer refills every freed slot.
	if w, i := m.streamMatch(line); w >= 0 {
		s := &m.streams[w]
		s.fifo = s.fifo[i+1:]
		s.lastUse = m.now
		m.prefetchInto(s)
		m.fillL1(line)
		m.counts.streamHits++
		m.counts.pfUsed++
		return core.ServedStream
	}
	// A full miss fetches the line; the miss cache also keeps a copy,
	// and the least recently used stream buffer is flushed and restarted
	// on the lines after it.
	m.counts.fetches++
	m.fillL1(line)
	if m.mc != nil {
		m.mc.push(line)
	}
	if len(m.streams) > 0 {
		lru := 0
		for w := range m.streams {
			if m.streams[w].lastUse < m.streams[lru].lastUse {
				lru = w
			}
		}
		s := &m.streams[lru]
		s.fifo, s.next, s.lastUse = s.fifo[:0], line+1, m.now
		m.prefetchInto(s)
	}
	return core.ServedMemory
}

// fillL1 fills the first-level cache; with a victim cache the displaced
// line moves into it.
func (m *refModel) fillL1(line uint64) {
	if old, displaced := m.l1.fill(line); displaced && m.vc != nil {
		m.vc.push(old)
	}
}

// streamMatch returns the first buffer with a comparator that matches
// line, or -1, and the matching entry's place in its FIFO: only the head
// compares, unless quasi gives every entry a comparator.
func (m *refModel) streamMatch(line uint64) (w, i int) {
	for w, s := range m.streams {
		compared := s.fifo[:min(1, len(s.fifo))]
		if m.quasi {
			compared = s.fifo
		}
		if i := slices.Index(compared, line); i >= 0 {
			return w, i
		}
	}
	return -1, 0
}

func (m *refModel) prefetchInto(s *refStream) {
	for len(s.fifo) < m.depth {
		s.fifo = append(s.fifo, s.next)
		s.next++
		m.counts.prefetches++
	}
}

// refShape is one front-end configuration drawn by the fuzzer.
type refShape struct {
	kind          byte // 0 baseline, 1 miss cache, 2 victim, 3 stream, 4 victim+stream
	size, line    int
	entries, ways int
	depth         int
	quasi         bool
}

func (s refShape) String() string {
	return fmt.Sprintf("kind %d, %dB L1, %dB lines, %d entries, %d ways, depth %d, quasi %v",
		s.kind, s.size, s.line, s.entries, s.ways, s.depth, s.quasi)
}

// build returns the front end under test and its reference model.
func (s refShape) build() (*core.Level, *refModel) {
	l1 := cache.MustNew(cache.Config{Size: s.size, LineSize: s.line, Assoc: 1})
	timing := core.DefaultTiming()
	stream := core.StreamConfig{Ways: s.ways, Depth: s.depth, Quasi: s.quasi}
	m := &refModel{l1: newRefL1(s.size / s.line), depth: s.depth, quasi: s.quasi}
	ways := 0
	var fe *core.Level
	switch s.kind {
	case 0:
		fe = core.NewBaseline(l1, nil, timing)
	case 1:
		fe = core.NewMissCache(l1, s.entries, nil, timing)
		m.mc = &refLRU{size: s.entries}
	case 2:
		fe = core.NewVictimCache(l1, s.entries, nil, timing)
		m.vc = &refLRU{size: s.entries}
	case 3:
		fe = core.NewStreamBuffer(l1, stream, nil, timing)
		ways = max(s.ways, 1) // a stream-buffer front end has at least one buffer
	default:
		fe = core.NewCombined(l1, s.entries, stream, nil, timing)
		m.vc = &refLRU{size: s.entries}
		ways = s.ways // zero ways: a victim cache alone
	}
	m.streams = make([]refStream, ways)
	return fe, m
}

// refAddrs turns fuzz bytes into an address stream, three bytes per
// access: the first picks a store bit and a pattern (the next sequential
// line, a short stride, a line that conflicts with a recent one in a
// direct-mapped cache of size bytes, or a scattered address in 64KB),
// the other two its operand.
func refAddrs(data []byte, size, line int) (addrs []uint64, writes []bool) {
	const base = 0x100000
	prev := uint64(base)
	for ; len(data) >= 3; data = data[3:] {
		op, arg := data[0], uint64(data[1])<<8|uint64(data[2])
		var addr uint64
		switch (op >> 1) & 3 {
		case 0:
			addr = prev + uint64(line)
		case 1:
			addr = prev + (arg%8)*uint64(line)
		case 2:
			addr = base + (arg%4)*uint64(size) + (prev % uint64(size))
		default:
			addr = base + arg*4
		}
		addrs = append(addrs, addr)
		writes = append(writes, op&1 == 1)
		prev = addr
	}
	return addrs, writes
}

// tapMiss is one miss as a tap saw it, or as the reference model
// predicts it.
type tapMiss struct {
	addr   uint64
	served core.ServedBy
	index  uint64
}

// recordingTap asks for every miss, keeping its Due one ahead: one
// access ahead when byAccess is set, one miss ahead otherwise.
type recordingTap struct {
	byAccess bool
	misses   []tapMiss
}

func (r *recordingTap) Miss(addr uint64, res core.Result, st *core.Stats) core.Due {
	r.misses = append(r.misses, tapMiss{addr, res.Served, st.Accesses - 1})
	return r.Sync(st)
}

func (r *recordingTap) Sync(st *core.Stats) core.Due {
	if r.byAccess {
		return core.Due{Accesses: st.Accesses + 1, Misses: math.MaxUint64}
	}
	return core.Due{Accesses: math.MaxUint64, Misses: st.L1Misses + 1}
}

// idleTap never comes due; its Miss must never run.
type idleTap struct{ calls int }

func (r *idleTap) Miss(uint64, core.Result, *core.Stats) core.Due {
	r.calls++
	return r.Sync(nil)
}

func (r *idleTap) Sync(*core.Stats) core.Due {
	return core.Due{Accesses: math.MaxUint64, Misses: math.MaxUint64}
}

// checkAgainstReference replays data through shape's front end and its
// reference model and reports the first disagreement. Three more copies
// of the front end carry taps: two recording taps, one kept due by
// accesses and one by misses, must each see exactly the reference
// model's misses; an idle tap must never be called; and no tap may
// change the front end's Stats.
func checkAgainstReference(t *testing.T, shape refShape, data []byte) {
	fe, ref := shape.build()
	recs := []*recordingTap{{byAccess: true}, {byAccess: false}}
	quiet := &idleTap{}
	var tapped []*core.Level
	for _, tap := range []core.Tap{recs[0], recs[1], quiet} {
		l, _ := shape.build()
		l.SetTap(tap)
		tapped = append(tapped, l)
	}
	var want []tapMiss
	addrs, writes := refAddrs(data, shape.size, shape.line)
	for i, addr := range addrs {
		got := fe.Access(addr, writes[i]).Served
		for _, l := range tapped {
			l.Access(addr, writes[i])
		}
		served := ref.access(addr / uint64(shape.line))
		if got != served {
			t.Fatalf("%v: access %d (%#x): served by %v, reference says %v", shape, i, addr, got, served)
		}
		if served != core.ServedL1 {
			want = append(want, tapMiss{addr, served, uint64(i)})
		}
	}
	for _, rec := range recs {
		if !slices.Equal(rec.misses, want) {
			t.Errorf("%v: recording tap (by access %v) saw %d misses, reference has %d",
				shape, rec.byAccess, len(rec.misses), len(want))
		}
	}
	if quiet.calls != 0 {
		t.Errorf("%v: a tap that never came due was called %d times", shape, quiet.calls)
	}
	st := fe.Stats()
	for _, l := range tapped {
		if l.Stats() != st {
			t.Errorf("%v: attaching a tap changed Stats:\nplain  %+v\ntapped %+v", shape, st, l.Stats())
		}
	}
	c := ref.counts
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"accesses", st.Accesses, c.accesses},
		{"L1 hits", st.L1Hits, c.l1Hits},
		{"L1 misses", st.L1Misses, c.l1Misses},
		{"aux hits", st.AuxHits, c.missCacheHits + c.victimHits + c.streamHits},
		{"miss-cache hits", st.MissCacheHits, c.missCacheHits},
		{"victim hits", st.VictimHits, c.victimHits},
		{"stream hits", st.StreamHits, c.streamHits},
		{"overlap hits", st.OverlapHits, c.overlapHits},
		{"fetches", st.Fetches, c.fetches},
		{"prefetches issued", st.PrefetchIssued, c.prefetches},
		{"prefetches used", st.PrefetchUsed, c.pfUsed},
	} {
		if f.got != f.want {
			t.Errorf("%v: %s = %d, reference %d", shape, f.name, f.got, f.want)
		}
	}
}

// refSeedData is a deterministic pseudo-random byte stream for the seed
// corpus.
func refSeedData(seed uint32, n int) []byte {
	out := make([]byte, n)
	x := seed*2654435761 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}

// FuzzFrontEndVsReference checks every front-end shape against the
// reference models over random geometry, helper sizes (0–15 entries,
// 0–4 ways, depth 1–6) and address streams. kind%5 picks the shape, and
// bit 0 of kind/5 gives its stream buffers the quasi-sequential
// extension, which core searches with a scan of every entry and the
// model with a slice search of its own.
func FuzzFrontEndVsReference(f *testing.F) {
	sequential := make([]byte, 300) // op 0: the next line, every access
	for kind := byte(0); kind < 5; kind++ {
		for seed := uint32(0); seed < 3; seed++ {
			f.Add(kind, byte(seed), byte(seed+2), byte(4+seed), byte(1+seed), byte(3), refSeedData(seed+uint32(kind)*7, 3000))
		}
		f.Add(kind, byte(6), byte(2), byte(1), byte(4), byte(0), sequential)
		f.Add(kind+5, byte(1), byte(1), byte(2), byte(2), byte(3), refSeedData(uint32(kind)*11+5, 3000))
	}
	f.Fuzz(func(t *testing.T, kind, sizeSel, lineSel, entries, ways, depth byte, data []byte) {
		shape := refShape{
			kind:    kind % 5,
			size:    64 << (sizeSel % 7), // 64B–4KB
			line:    4 << (lineSel % 5),  // 4B–64B
			entries: int(entries % 16),   // every size the paper sweeps (1–15)
			ways:    int(ways % 5),
			depth:   1 + int(depth%6),
			quasi:   kind/5%2 == 1,
		}
		checkAgainstReference(t, shape, data)
	})
}
