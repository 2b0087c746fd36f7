package core

import "fmt"

// StreamConfig configures a stream-buffer set.
type StreamConfig struct {
	// Ways is the number of parallel stream buffers. 1 reproduces the
	// paper's §4.1 single sequential buffer; 4 its §4.2 multi-way buffer.
	// Defaults to 1.
	Ways int
	// Depth is the number of entries per buffer (paper: 4). Defaults to 4.
	Depth int
	// RunLimit caps how many lines a buffer may prefetch past the miss
	// that allocated it — the x-axis of Figures 4-3 and 4-5. 0 means
	// unlimited (real hardware, which stops only at a reallocation).
	RunLimit int
	// Quasi enables the quasi-sequential extension: a tag comparator on
	// every entry rather than only the head, so a miss matching a
	// non-head entry skips the stale entries ahead of it instead of
	// flushing the buffer. The paper's simple model (§4.1) is Quasi ==
	// false.
	Quasi bool
	// DetectStride enables the non-unit-stride extension the paper's §5
	// lists as future work: a two-miss history detects a constant stride
	// and allocates buffers that prefetch along it. Unit stride (+1
	// line) remains the default when no pattern is detected.
	DetectStride bool
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Ways == 0 {
		c.Ways = 1
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	return c
}

// Validate reports configuration errors.
func (c StreamConfig) Validate() error {
	if c.Ways < 0 {
		return fmt.Errorf("core: negative stream buffer ways %d", c.Ways)
	}
	if c.Depth < 0 {
		return fmt.Errorf("core: negative stream buffer depth %d", c.Depth)
	}
	if c.RunLimit < 0 {
		return fmt.Errorf("core: negative stream buffer run limit %d", c.RunLimit)
	}
	return nil
}

// streamEntry is one slot of a stream buffer: the prefetched line's
// address and the cycle at which its data becomes available.
type streamEntry struct {
	lineAddr uint64
	availAt  uint64
}

// streamWay is a single FIFO stream buffer.
type streamWay struct {
	entries  []streamEntry // entries[0] is the head
	n        int
	nextLine uint64 // next line address this way will prefetch
	stride   int64  // line-address stride (normally +1)
	run      int    // lines prefetched since allocation
	lastUse  uint64 // clock of last allocation or hit, for LRU selection
	active   bool
	edge     bool // stream reached the address-space boundary; stop prefetching
}

// nextLineAddr advances cur by stride in line-address space. ok is false
// when the step would leave the 64-bit space — a descending stream
// reaching line 0, or an ascending one wrapping past the top — in which
// case the stream must stop rather than prefetch a wrapped address.
func nextLineAddr(cur uint64, stride int64) (next uint64, ok bool) {
	if stride >= 0 {
		next = cur + uint64(stride)
		return next, next >= cur
	}
	mag := uint64(0) - uint64(stride) // magnitude; exact even for MinInt64
	return cur - mag, cur >= mag
}

// streamSet is a group of stream buffers sharing the pipelined next-level
// port. It contains all the buffer mechanics; Level wraps it.
type streamSet struct {
	cfg      StreamConfig
	ways     []streamWay
	portFree uint64 // next cycle the pipelined fill port is free
	fetch    Fetcher
	timing   Timing

	// Stride detection state (two-delta confirmation).
	lastMiss  uint64
	lastDelta int64
	haveMiss  bool
	haveDelta bool

	issued uint64 // prefetches issued, reported up into Stats
}

// newStreamSet builds the buffers of a validated cfg with defaults
// filled in.
func newStreamSet(cfg StreamConfig, fetch Fetcher, timing Timing) *streamSet {
	s := &streamSet{cfg: cfg, fetch: fetch, timing: timing}
	s.ways = make([]streamWay, cfg.Ways)
	for i := range s.ways {
		s.ways[i].entries = make([]streamEntry, cfg.Depth)
		s.ways[i].stride = 1
	}
	return s
}

// probe looks lineAddr up across the ways. On a hit it consumes the entry,
// advances the way's prefetching, and returns the stall cycles implied by
// the entry's availability. inFlight reports whether the access had to
// wait on an outstanding fill.
func (s *streamSet) probe(lineAddr uint64, now uint64) (hit, inFlight bool, stall int) {
	for w := range s.ways {
		way := &s.ways[w]
		if !way.active || way.n == 0 {
			continue
		}
		depth := way.n
		if !s.cfg.Quasi {
			depth = 1 // head-only comparator
		}
		for i := 0; i < depth; i++ {
			if way.entries[i].lineAddr != lineAddr {
				continue
			}
			e := way.entries[i]
			stall = s.timing.AuxPenalty
			if e.availAt > now {
				inFlight = true
				stall += int(e.availAt - now)
			}
			// Consume this entry and everything ahead of it (the
			// quasi-sequential skip); then top the buffer back up.
			copy(way.entries, way.entries[i+1:way.n])
			way.n -= i + 1
			way.lastUse = now
			s.refill(way, now)
			return true, inFlight, stall
		}
	}
	return false, false, 0
}

// contains reports whether any way holds lineAddr (head-only unless Quasi),
// without consuming anything. Used for the §5 overlap statistic.
func (s *streamSet) contains(lineAddr uint64) bool {
	for w := range s.ways {
		way := &s.ways[w]
		if !way.active {
			continue
		}
		depth := way.n
		if !s.cfg.Quasi {
			depth = min(1, way.n)
		}
		for i := 0; i < depth; i++ {
			if way.entries[i].lineAddr == lineAddr {
				return true
			}
		}
	}
	return false
}

// allocate flushes the least recently used way and restarts it prefetching
// after missLine. Called on an L1 miss that missed every way.
func (s *streamSet) allocate(missLine uint64, now uint64) {
	if len(s.ways) == 0 || s.cfg.Depth == 0 {
		s.noteMiss(missLine)
		return
	}
	stride := int64(1)
	if s.cfg.DetectStride {
		stride = s.detectStride(missLine)
	} else {
		s.noteMiss(missLine)
	}

	way := &s.ways[0]
	for w := 1; w < len(s.ways); w++ {
		if s.ways[w].lastUse < way.lastUse {
			way = &s.ways[w]
		}
	}
	way.n = 0
	way.stride = stride
	way.run = 0
	way.lastUse = now
	next, ok := nextLineAddr(missLine, stride)
	if !ok {
		// Even the first prefetch would wrap the address space (e.g. a
		// descending stream that just missed on line 0): leave the way
		// idle rather than chase a wrapped address.
		way.active = false
		return
	}
	way.active = true
	way.edge = false
	way.nextLine = next
	s.refill(way, now)
}

// refill issues prefetches until the way is full or its run budget is
// exhausted, modelling the pipelined next-level port (one request per
// FillInterval cycles, each completing FillLatency later).
func (s *streamSet) refill(way *streamWay, now uint64) {
	for way.n < s.cfg.Depth {
		if way.edge {
			return
		}
		if s.cfg.RunLimit > 0 && way.run >= s.cfg.RunLimit {
			return
		}
		issueAt := max(now, s.portFree)
		s.portFree = issueAt + uint64(s.timing.FillInterval)
		way.entries[way.n] = streamEntry{
			lineAddr: way.nextLine,
			availAt:  issueAt + uint64(s.timing.FillLatency),
		}
		way.n++
		way.run++
		s.issued++
		if s.fetch != nil {
			s.fetch(way.nextLine, true)
		}
		next, ok := nextLineAddr(way.nextLine, way.stride)
		if !ok {
			// The stream hit the edge of the address space: the entries
			// already buffered stay usable, but it extends no further.
			way.edge = true
			return
		}
		way.nextLine = next
	}
}

// noteMiss records miss history for stride detection.
func (s *streamSet) noteMiss(missLine uint64) {
	if s.haveMiss {
		delta := int64(missLine) - int64(s.lastMiss)
		s.lastDelta, s.haveDelta = delta, true
	}
	s.lastMiss, s.haveMiss = missLine, true
}

// detectStride returns the stride to allocate with: if the last two miss
// deltas agree and are non-zero, that delta; otherwise unit stride.
func (s *streamSet) detectStride(missLine uint64) int64 {
	stride := int64(1)
	if s.haveMiss && s.haveDelta {
		delta := int64(missLine) - int64(s.lastMiss)
		if delta == s.lastDelta && delta != 0 {
			stride = delta
		}
	}
	s.noteMiss(missLine)
	return stride
}
