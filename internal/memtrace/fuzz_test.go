// Fuzz targets live in an external test package so they can seed their
// corpus from internal/faultinject's byte corruptors without an import
// cycle.
package memtrace_test

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"jouppi/internal/faultinject"
	"jouppi/internal/memtrace"
)

// validJTR returns a well-formed binary trace encoding.
func validJTR() []byte {
	tr := memtrace.NewTrace(0)
	tr.Append(memtrace.Access{Addr: 0x1000, Kind: memtrace.Load})
	tr.Append(memtrace.Access{Addr: 0x1004, Kind: memtrace.Ifetch})
	tr.Append(memtrace.Access{Addr: 0x2000, Kind: memtrace.Store})
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	return buf.Bytes()
}

// addFaultSeeds seeds f with deterministic corruptions of data, one per
// fault class the trace fault injector models, so the fuzzer starts from
// realistic damage instead of pure noise.
func addFaultSeeds(f *testing.F, data []byte) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(faultinject.Truncate(data, seed))
		f.Add(faultinject.FlipBits(data, seed, 4))
		f.Add(faultinject.DuplicateSpan(data, seed, 8))
		f.Add(faultinject.TruncateHeader(data, seed))
	}
}

// FuzzReadTrace checks that arbitrary input never panics the binary
// reader, and that anything it accepts round-trips.
func FuzzReadTrace(f *testing.F) {
	// Seeds: a valid trace, per-fault-class corruptions, and garbage.
	valid := validJTR()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("JTR1garbage"))
	f.Add([]byte{})
	addFaultSeeds(f, valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := memtrace.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must survive a round trip.
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		tr2, err := memtrace.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip changed length: %d vs %d", tr2.Len(), tr.Len())
		}
	})
}

// FuzzReadDinero checks the text parser likewise.
func FuzzReadDinero(f *testing.F) {
	f.Add("0 1000\n1 2000\n2 3000\n")
	f.Add("0\n")
	f.Add("junk junk junk\n")
	f.Add("")
	f.Add("2 ffffffffffffffff\n")
	din := []byte("0 1000\n1 2000\n2 3000\n0 4000\n")
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(string(faultinject.Truncate(din, seed)))
		f.Add(string(faultinject.FlipBits(din, seed, 4)))
		f.Add(string(faultinject.DuplicateSpan(din, seed, 7)))
		f.Add(string(faultinject.TruncateHeader(din, seed)))
	}

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := memtrace.ReadDinero(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := tr.WriteDinero(&buf); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		tr2, err := memtrace.ReadDinero(&buf)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip changed length: %d vs %d", tr2.Len(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			// Addresses above 62 bits are rejected by the reader, so
			// anything that parsed fits the packed representation and
			// the second round trip must be exact.
			if tr.At(i) != tr2.At(i) {
				t.Fatalf("record %d changed: %v vs %v", i, tr.At(i), tr2.At(i))
			}
		}
	})
}

// FuzzLenientReaders checks both formats through NewDecoder. On any
// input, lenient decoding with an unlimited budget never fails and keeps
// its report consistent: Dropped is the sum of Reasons, and a drop names
// its first fault. Input that strict decoding accepts, lenient decoding
// delivers as the same records with nothing dropped. And NextChunk
// delivers exactly what Next does, with the same error and report, in
// strict and lenient mode alike.
func FuzzLenientReaders(f *testing.F) {
	valid := validJTR()
	f.Add(valid)
	f.Add([]byte("0 1000\n1 2000\nnot a record\n2 3000\n"))
	addFaultSeeds(f, valid)
	addFaultSeeds(f, []byte("0 1000\n1 2000\n2 3000\n0 4000\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []memtrace.Format{memtrace.JTR, memtrace.Din} {
			strict, sdec := decodeAll(data, format, false, false)
			if sdec == nil {
				// A damaged binary header is rejected before any record
				// exists, so lenient mode never sees it either.
				continue
			}
			lenient, ldec := decodeAll(data, format, true, false)
			if err := ldec.Err(); err != nil {
				t.Fatalf("%v: lenient decode with unlimited budget failed: %v", format, err)
			}
			d := ldec.Degradation()
			var sum uint64
			for _, n := range d.Reasons {
				sum += n
			}
			if d.Dropped != sum {
				t.Fatalf("%v: Dropped = %d but reasons sum to %d", format, d.Dropped, sum)
			}
			if d.Degraded() && d.First == "" {
				t.Fatalf("%v: drops recorded but no first diagnostic", format)
			}
			if sdec.Err() == nil {
				if d.Degraded() {
					t.Fatalf("%v: strict decode accepted what lenient decode dropped: %v", format, d)
				}
				if !slices.Equal(lenient, strict) {
					t.Fatalf("%v: lenient decode delivered %d records, strict %d", format, len(lenient), len(strict))
				}
			}

			for _, want := range []struct {
				lenient bool
				recs    []memtrace.Access
				dec     memtrace.Decoder
			}{{false, strict, sdec}, {true, lenient, ldec}} {
				got, gdec := decodeAll(data, format, want.lenient, true)
				if !slices.Equal(got, want.recs) {
					t.Fatalf("%v lenient=%t: NextChunk delivered %d records, Next %d",
						format, want.lenient, len(got), len(want.recs))
				}
				if g, w := fmt.Sprint(gdec.Err()), fmt.Sprint(want.dec.Err()); g != w {
					t.Fatalf("%v lenient=%t: NextChunk ended with %s, Next with %s", format, want.lenient, g, w)
				}
				if !reflect.DeepEqual(gdec.Degradation(), want.dec.Degradation()) {
					t.Fatalf("%v lenient=%t: NextChunk reported %v, Next %v",
						format, want.lenient, gdec.Degradation(), want.dec.Degradation())
				}
			}
		}
	})
}

// decodeAll decodes data in format, strictly or leniently with an
// unlimited budget, through Next or through NextChunk in chunks of three.
// It returns a nil Decoder when the input cannot be opened.
func decodeAll(data []byte, format memtrace.Format, lenient, chunked bool) ([]memtrace.Access, memtrace.Decoder) {
	dec, err := memtrace.NewDecoder(bytes.NewReader(data), format)
	if err != nil {
		return nil, nil
	}
	if lenient {
		dec.Lenient(0)
	}
	var recs []memtrace.Access
	if !chunked {
		memtrace.Each(dec, func(a memtrace.Access) { recs = append(recs, a) })
		return recs, dec
	}
	var buf [3]memtrace.Access
	for {
		n := dec.NextChunk(buf[:])
		recs = append(recs, buf[:n]...)
		if n < len(buf) {
			return recs, dec
		}
	}
}

// refDinFault is one malformed line the reference decoder found, with
// the number of records before it.
type refDinFault struct {
	line, before int
	reason       string
}

// refDin is an independent din decoder for FuzzDinVsReference. It shares
// no code with the package: it splits the input on '\n' and reads each
// line with strings.Fields and strconv. A line is a record when its
// first two fields are a decimal label 0, 1 or 2 and a hex address of at
// most 62 bits; any further fields are ignored, and blank lines are
// skipped. recs holds every record in order, faults every other line.
func refDin(data string) (recs []memtrace.Access, faults []refDinFault) {
	kinds := map[int]memtrace.Kind{0: memtrace.Load, 1: memtrace.Store, 2: memtrace.Ifetch}
	lines := strings.Split(data, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // the text ended with a newline, or was empty
	}
	for i, line := range lines {
		fault := func(reason string) { faults = append(faults, refDinFault{i + 1, len(recs), reason}) }
		if len(line) > 1<<20 {
			fault("line-too-long")
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			fault("short-line")
			continue
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			fault("bad-label")
			continue
		}
		addr, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			fault("bad-address")
			continue
		}
		if addr >= 1<<62 {
			fault("address-range")
			continue
		}
		kind, ok := kinds[label]
		if !ok {
			fault("unknown-label")
			continue
		}
		recs = append(recs, memtrace.Access{Addr: memtrace.Addr(addr), Kind: kind})
	}
	return recs, faults
}

// dinShapes are the reader shapes checkDinVsReference decodes through:
// one byte per Read, so even small inputs cross the window's edges; the
// whole input, whose window takes every canonical line that starts 19
// bytes or more before its end through the scan loop's fixed-window
// step; and half of each requested Read.
var dinShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"OneByteReader", iotest.OneByteReader},
	{"strings.Reader", func(r io.Reader) io.Reader { return r }},
	{"HalfReader", iotest.HalfReader},
}

// checkDinVsReference decodes data strictly and leniently through every
// reader shape and checks the outcome against refDin. Strict decoding
// delivers the records before the first malformed line and fails naming
// that line; lenient decoding delivers every record and reports each
// malformed line under its reason, naming the first. Every shape must
// deliver the same records, Err text and Degradation.
func checkDinVsReference(t *testing.T, data string) {
	t.Helper()
	want, faults := refDin(data)
	decode := func(lenient bool) ([]memtrace.Access, *memtrace.DineroReader) {
		var recs []memtrace.Access
		var dr *memtrace.DineroReader
		for i, shape := range dinShapes {
			d := memtrace.NewDineroReader(shape.wrap(strings.NewReader(data)))
			if lenient {
				d.Lenient(0)
			}
			var got []memtrace.Access
			memtrace.Each(d, func(a memtrace.Access) { got = append(got, a) })
			if i == 0 {
				recs, dr = got, d
				continue
			}
			if !slices.Equal(got, recs) || fmt.Sprint(d.Err()) != fmt.Sprint(dr.Err()) ||
				!reflect.DeepEqual(d.Degradation(), dr.Degradation()) {
				t.Fatalf("lenient=%t: %s decode (%d records, Err %v, %v) differs from %s's (%d, %v, %v)",
					lenient, shape.name, len(got), d.Err(), d.Degradation(),
					dinShapes[0].name, len(recs), dr.Err(), dr.Degradation())
			}
		}
		return recs, dr
	}
	at := func(line int) string { return fmt.Sprintf("memtrace: din line %d: ", line) }

	got, dr := decode(false)
	if len(faults) == 0 {
		if err := dr.Err(); err != nil {
			t.Fatalf("strict: %v; the reference found no malformed line", err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("strict: %d records, the reference %d: %v vs %v", len(got), len(want), got, want)
		}
	} else {
		first := faults[0]
		if err := dr.Err(); err == nil || !strings.HasPrefix(err.Error(), at(first.line)) {
			t.Fatalf("strict: Err = %v, want a fault at line %d (%s)", err, first.line, first.reason)
		}
		if !slices.Equal(got, want[:first.before]) {
			t.Fatalf("strict: %d records before the fault, the reference %d", len(got), first.before)
		}
	}

	got, dr = decode(true)
	if err := dr.Err(); err != nil {
		t.Fatalf("lenient: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("lenient: %d records, the reference %d: %v vs %v", len(got), len(want), got, want)
	}
	d := dr.Degradation()
	reasons := map[string]uint64{}
	for _, f := range faults {
		reasons[f.reason]++
	}
	if d.Dropped != uint64(len(faults)) || !maps.Equal(d.Reasons, reasons) {
		t.Fatalf("lenient: dropped %d %v, the reference %d %v", d.Dropped, d.Reasons, len(faults), reasons)
	}
	if len(faults) > 0 && !strings.HasPrefix(d.First, at(faults[0].line)) {
		t.Fatalf("lenient: first fault %q, want line %d", d.First, faults[0].line)
	}
}

// FuzzDinVsReference checks the din decoder against refDin, an oracle
// that shares no code with it, through every reader shape
// (checkDinVsReference).
func FuzzDinVsReference(f *testing.F) {
	f.Add("0 1000\n1 2000\n2 3000\n")
	f.Add("0 1000\r\n\t1\tABCDEF\t\r\n  2   3000   extra\n\n")
	f.Add("0 3fffffffffffffff\n0 4000000000000000\n2 00000000000000000001\n")
	f.Add("00 10\n3 20\n+1 30\n-0 40\n0x 50\n")
	f.Add("0\u00a01000\n\u2003\n1 2000\u00852\n0 zz\n0\n")
	f.Add("0 1000\n1 2000")
	f.Add("")
	// The edges of the fixed-window step: 1, 7, 8, 16 and 17 digits, the
	// largest address it takes and the first it leaves to the general
	// loop, lines it must not take, and a final line shorter than its
	// window with no '\n'.
	f.Add("0 a\n1 abcdef0\n2 abcdef01\n0 0123456789abcdef\n1 0123456789abcdef0\n2 1\n")
	f.Add("0 3fffffffffffffff\n1 4000000000000000\n2 10\n0 20\n")
	f.Add("2 100000000000\n3 10\n2 \n00 10\n0  10\n0 10\r\n0 10 x\n1 2000000000000000\n")
	f.Add("0 1000000000\n1 2000000000\n2 30")
	din := []byte("0 1000\n1 2000\n2 3000\n0 4000\n")
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(string(faultinject.FlipBits(din, seed, 4)))
		f.Add(string(faultinject.DuplicateSpan(din, seed, 7)))
	}
	f.Fuzz(checkDinVsReference)
}

// TestDinMixedVsReference checks a din text over three 64 KiB windows
// against refDin through every reader shape. Its canonical lines carry 1
// to 16 digits, so lines start at every offset of a window's end, and
// every 7th line is unusual: valid in a shape the fixed-window step
// leaves to the general loop or to the exact path, or malformed.
func TestDinMixedVsReference(t *testing.T) {
	unusual := []string{
		"0 10\r", "1 20 trailing", "\t2\t30", "00 40", "0  50", "2 00000000000000000060",
		"0\u00a070", "", "1 ", "3 80", "0 zz", "1 4000000000000000", "2", "0 3fffffffffffffff ",
	}
	var sb strings.Builder
	for i := 0; sb.Len() < 3<<16; i++ {
		if i%7 == 6 {
			sb.WriteString(unusual[i/7%len(unusual)])
		} else {
			addr := uint64(0x123456789abcdef1) >> (4 * (i % 16)) // 16 down to 1 digits
			fmt.Fprintf(&sb, "%d %x", i%3, addr+uint64(i))
		}
		sb.WriteByte('\n')
	}
	checkDinVsReference(t, sb.String())
}
