package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
)

// Every input of the benchmark is made here from the seed. The programs
// under test only ever see the generated files and requests.

// rng is xorshift64*: small, fast and fixed, so a seed names the same
// inputs on every Go release.
type rng struct{ s uint64 }

// newRNG derives an independent generator for one input stream of a
// seed, so the inputs of different workloads differ under one seed.
func newRNG(seed, stream uint64) *rng {
	z := seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n); the modulo bias is irrelevant here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Input streams: one per generated input, so each is independent of the
// others' lengths.
const (
	streamDin uint64 = iota + 1
	streamSweep
	streamUpload
	streamMixed
	streamMixedOrder
)

type kind uint8

const (
	ifetch kind = iota
	load
	store
)

type access struct {
	addr uint64
	kind kind
}

// Address map of the synthetic program. Everything lies below 16 MiB, so
// an svc-upload variant can add a multiple of 16 MiB to every address
// and keep each cache's set index (see upload).
const (
	codeBase     = 0x100000
	codeSize     = 64 << 10
	arrayBase    = 0x200000
	conflictBase = 0x300000
	conflictGap  = 64 << 10
	heapBase     = 0x400000
	heapSize     = 512 << 10
	stackTop     = 0x7f0000
	addrLimit    = 1 << 24
)

// genTrace returns n references of a synthetic program that exercises
// every structure of the paper. Instruction fetches run loops through 48
// functions in a 64 KiB code region. 45% of fetches are followed by a
// 4-byte data reference: 68% to the current stack frame
// (hits), 22% to one of four arrays swept with unit stride (misses a
// multi-way stream buffer removes), 7% to two arrays 64 KiB apart read
// in alternation (conflict misses a victim cache removes), and 3% to a
// random heap word (misses nothing removes).
func genTrace(seed, stream uint64, n int) []access {
	r := newRNG(seed, stream)
	type function struct{ start, end uint64 }
	fns := make([]function, 48)
	for i := range fns {
		start := uint64(codeBase + 4*r.intn(codeSize/4-64))
		fns[i] = function{start, start + 4*uint64(8+r.intn(57))}
	}
	type array struct{ base, size, off uint64 }
	var sweeps [4]array
	for i := range sweeps {
		sweeps[i] = array{base: uint64(arrayBase + i*(128<<10) + 16*r.intn(1024)), size: uint64(8+r.intn(57)) << 10}
	}
	conflict := uint64(conflictBase + 16*r.intn(256))
	var confOff uint64
	confTurn := false

	out := make([]access, 0, n)
	fn := fns[0]
	pc, laps := fn.start, 1
	sp := uint64(stackTop)
	for len(out) < n {
		out = append(out, access{pc, ifetch})
		if pc += 4; pc >= fn.end {
			if laps--; laps <= 0 {
				fn = fns[r.intn(len(fns))]
				laps = 1 + r.intn(8)
				sp = uint64(stackTop - 64*r.intn(32))
			}
			pc = fn.start
		}
		if len(out) == n || r.intn(100) >= 45 {
			continue
		}
		k := load
		if r.intn(10) < 3 {
			k = store
		}
		var a uint64
		switch p := r.intn(100); {
		case p < 68:
			a = sp - 4*uint64(r.intn(64))
		case p < 90:
			s := &sweeps[r.intn(len(sweeps))]
			a = s.base + s.off
			s.off = (s.off + 4) % s.size
		case p < 97:
			a = conflict + confOff
			if confTurn {
				a += conflictGap
				confOff = (confOff + 4) % 2048
			}
			confTurn = !confTurn
		default:
			a = heapBase + 4*uint64(r.intn(heapSize/4))
		}
		out = append(out, access{a, k})
	}
	return out
}

// dataRefs keeps the loads and stores, the stream cachesim -side data
// simulates.
func dataRefs(refs []access) []access {
	var out []access
	for _, a := range refs {
		if a.kind != ifetch {
			out = append(out, a)
		}
	}
	return out
}

// dinLabel is the dinero label of a reference kind.
func dinLabel(k kind) byte {
	switch k {
	case load:
		return '0'
	case store:
		return '1'
	default:
		return '2'
	}
}

// upload builds svc-upload request bodies. Variant k of the base trace
// adds k×16 MiB to every address. Every cache in the modelled system is
// at most 16 MiB, so a variant keeps each reference's set index and maps
// distinct lines to distinct lines: its results equal the base trace's,
// while its bytes, and so the daemon's cache key, are new.
type upload struct {
	// lines holds each record as "<label> <6 hex digits>": the address
	// without the variant's leading digits.
	lines   []byte
	configs string
}

func newUpload(refs []access, configs string) *upload {
	u := &upload{lines: make([]byte, 0, 8*len(refs)), configs: configs}
	for _, a := range refs {
		if a.addr >= addrLimit {
			panic(fmt.Sprintf("upload address %#x beyond 16 MiB", a.addr))
		}
		u.lines = append(u.lines, dinLabel(a.kind), ' ')
		for s := 20; s >= 0; s -= 4 {
			u.lines = append(u.lines, "0123456789abcdef"[a.addr>>s&15])
		}
	}
	return u
}

// din appends variant k (k ≥ 1) of the trace in din format to dst. The
// variant's digits lead every address, so no address has leading zeros.
func (u *upload) din(dst []byte, k uint64) []byte {
	prefix := strconv.FormatUint(k, 16)
	for i := 0; i < len(u.lines); i += 8 {
		dst = append(dst, u.lines[i:i+2]...)
		dst = append(dst, prefix...)
		dst = append(dst, u.lines[i+2:i+8]...)
		dst = append(dst, '\n')
	}
	return dst
}

// body appends the POST /jobs body of variant k to dst, using text as
// scratch space for the din text. Both are returned for reuse.
func (u *upload) body(dst, text []byte, k uint64) (body, din []byte) {
	text = u.din(text[:0], k)
	dst = append(dst[:0], `{"trace_format":"din","configs":"`...)
	dst = append(dst, u.configs...)
	dst = append(dst, `","trace":"`...)
	n := len(dst)
	enc := base64.StdEncoding
	dst = append(dst, make([]byte, enc.EncodedLen(len(text)))...)
	enc.Encode(dst[n:], text)
	return append(dst, `"}`...), text
}

// Benchmark jobs of svc-mixed. The built-in workloads size themselves by
// int(scale×N + 0.5), so scales a few ulps apart generate the same trace
// but are distinct inputs to the daemon: every variant of a base job is a
// fresh cache key with the base job's results. linpack is left out
// because it uses the fractional part of its scale.
var mixedBenchmarks = []string{"ccom", "grr", "yacc", "met", "liver"}

const (
	mixedScale   = 0.05
	mixedPrewarm = 32
	// svc-mixed's ops come in blocks of mixedBlock: mixedReads resubmits
	// of a pre-warmed job, then three fresh jobs of each built-in
	// workload, in a seeded order. Every run then has the same mix, 40%
	// reads and the same share of each workload, however many ops it
	// makes. With fewer reads than fresh jobs the median op is a fresh
	// job, whose time follows the gauge's more closely than a store
	// hit's, which is mostly system calls and wake-ups.
	mixedBlock = 25
	mixedReads = 10
	// freshBase keeps fresh-job scale variants clear of pre-warmed ones.
	freshBase = 1 << 20
)

type benchJob struct {
	bench string
	// variant is the job's distance in ulps from mixedScale.
	variant uint64
}

func (j benchJob) scale() float64 {
	return math.Float64frombits(math.Float64bits(mixedScale) + j.variant)
}

// prewarmJob is the p-th job pre-warmed in the store.
func prewarmJob(seed uint64, p int) benchJob {
	r := newRNG(seed, streamMixed)
	shift := r.intn(len(mixedBenchmarks))
	return benchJob{mixedBenchmarks[(p+shift)%len(mixedBenchmarks)], uint64(p) + 1}
}

// mixedOp decides svc-mixed op k: a resubmit of a pre-warmed job (read
// true) or a fresh job.
func mixedOp(seed, k uint64) (job benchJob, read bool) {
	block := newRNG(seed, streamMixedOrder<<32|k/mixedBlock)
	var slots [mixedBlock]int
	for i := range slots {
		j := block.intn(i + 1)
		slots[i], slots[j] = slots[j], i
	}
	slot := slots[k%mixedBlock]
	if slot < mixedReads {
		r := newRNG(seed, streamMixed<<32|k)
		return prewarmJob(seed, r.intn(mixedPrewarm)), true
	}
	return benchJob{mixedBenchmarks[(slot-mixedReads)%len(mixedBenchmarks)], freshBase + k}, false
}

// mixedDigest identifies svc-mixed's inputs: its pre-warmed jobs and the
// first 4096 ops of its schedule.
func mixedDigest(seed uint64) string {
	h := sha256.New()
	for p := range mixedPrewarm {
		fmt.Fprintln(h, prewarmJob(seed, p))
	}
	for k := range uint64(4096) {
		j, read := mixedOp(seed, k)
		fmt.Fprintln(h, j, read)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
