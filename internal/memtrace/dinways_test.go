package memtrace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"jouppi/internal/telemetry"
)

// dinDecode is the outcome of decoding one din stream to its end.
type dinDecode struct {
	recs    []Access
	err     string
	deg     Degradation
	decoded uint64 // memtrace_records_total after the stream ended
}

// dinWays are the ways a caller can pull a DineroReader dry: a Next
// loop, Each, Drain into a Trace, and NextChunk at three chunk sizes,
// which must fill short only at the end of the stream.
var dinWays = []struct {
	name string
	pull func(*testing.T, *DineroReader) []Access
}{
	{"Next", func(_ *testing.T, dr *DineroReader) []Access {
		var out []Access
		for {
			a, ok := dr.Next()
			if !ok {
				return out
			}
			out = append(out, a)
		}
	}},
	{"Each", func(_ *testing.T, dr *DineroReader) []Access { return collect(dr) }},
	{"Drain", func(_ *testing.T, dr *DineroReader) []Access {
		tr := NewTrace(0)
		Drain(dr, tr)
		var out []Access
		tr.Each(func(a Access) { out = append(out, a) })
		return out
	}},
	{"NextChunk(1)", chunkedDin(1)},
	{"NextChunk(7)", chunkedDin(7)},
	{"NextChunk(4096)", chunkedDin(4096)},
}

func chunkedDin(size int) func(*testing.T, *DineroReader) []Access {
	return func(t *testing.T, dr *DineroReader) []Access { return chunks(t, "din", dr, size) }
}

// dinReaders feed the decoder its bytes whole, one byte per Read, and
// half of each requested Read, so the buffered window's edges fall at
// every offset of a line.
var dinReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"OneByteReader", iotest.OneByteReader},
	{"HalfReader", iotest.HalfReader},
}

// decodeDin decodes in with pull, strictly or leniently with an
// unlimited budget, and instruments the reader's decoded counter.
func decodeDin(t *testing.T, in []byte, wrap func(io.Reader) io.Reader, lenient bool,
	pull func(*testing.T, *DineroReader) []Access) dinDecode {
	reg := telemetry.NewRegistry()
	decoded := reg.Counter("memtrace_records_total", "trace records decoded")
	dr := NewDineroReader(wrap(bytes.NewReader(in)))
	dr.Instrument(decoded, nil)
	if lenient {
		dr.Lenient(0)
	}
	recs := pull(t, dr)
	return dinDecode{recs: recs, err: fmt.Sprint(dr.Err()), deg: dr.Degradation(), decoded: decoded.Value()}
}

// straddling returns din records and one blank line followed by tail,
// sized so that tail starts pad bytes before offset 64 KiB, the buffered
// reader's first refill. n is the number of records before tail.
func straddling(tail string, pad int) (in string, n int) {
	var sb strings.Builder
	for ; sb.Len() < 1<<16-pad-16; n++ {
		fmt.Fprintf(&sb, "%d %x\n", n%3, 0x1000+n*4)
	}
	for sb.Len() < 1<<16-pad-1 {
		sb.WriteString(" ")
	}
	sb.WriteString("\n")
	sb.WriteString(tail)
	return sb.String(), n
}

// TestDinDecodeWays pins din decoding: every way of pulling a
// DineroReader, through every reader shape, delivers the same records,
// Err text, Degradation and decoded-record count, strict and lenient.
// The records, strict error and lenient report of each input are pinned
// too, so the decode behaviour itself cannot drift.
func TestDinDecodeWays(t *testing.T) {
	long := "0 1000\n1 " + strings.Repeat("f", maxDinLine) + "\n2 3000\n"
	many := kindFilterDin(20000) // ~200 KB: lines straddle several refills
	good, goodN := straddling("1 abcdef\n2 1234\n", 3)
	bad, badN := straddling("1 abcdeg\n2 1234\n", 4)
	badAddr := fmt.Sprintf(`memtrace: din line %d: bad address "abcdeg"`, badN+2)
	// A 19-byte canonical line, the fixed-window step's whole window,
	// starting one byte short of, exactly at and one byte past the
	// window's end before the first refill.
	const canon = "1 3fffffffffffffff\n2 1234\n"
	edge18, edge18N := straddling(canon, 18)
	edge19, edge19N := straddling(canon, 19)
	edge20, edge20N := straddling(canon, 20)
	cases := []struct {
		name     string
		in       string
		records  int    // lenient records
		strict   string // strict Err, "<nil>" for a clean decode
		degraded string // lenient Degradation.String()
	}{
		{"empty", "", 0, "<nil>", "no records dropped"},
		{"plain", "0 1000\n1 2000\n2 3000\n", 3, "<nil>", "no records dropped"},
		{"unterminated final line", "0 1000\n1 2000", 2, "<nil>", "no records dropped"},
		{"crlf tabs and spaces",
			"0 1000\r\n\t1\t2000\t\r\n  2   3000   \n\v0\f4000\r\n \t \r\n", 4, "<nil>", "no records dropped"},
		{"upper-case hex", "0 ABCDEF\n2 DeadBeef\n1 0Ab\n", 3, "<nil>", "no records dropped"},
		{"16 digits at MaxAddr", "0 3fffffffffffffff\n1 3FFFFFFFFFFFFFFF\n", 2, "<nil>", "no records dropped"},
		{"16 digits at MaxAddr+1", "0 1\n0 4000000000000000\n0 2\n", 2,
			"memtrace: din line 2: address 0x4000000000000000 exceeds the 62-bit range",
			"1 records dropped (address-range 1); first: memtrace: din line 2: address 0x4000000000000000 exceeds the 62-bit range"},
		{"17+ digits with leading zeros",
			"2 00000000000000001000\n0 0000000000000000000000000000000\n1 00003fffffffffffffff\n", 3, "<nil>", "no records dropped"},
		{"17 digits too wide", "0 10000000000000000\n", 0,
			`memtrace: din line 1: bad address "10000000000000000"`,
			`1 records dropped (bad-address 1); first: memtrace: din line 1: bad address "10000000000000000"`},
		{"trailing fields", "0 1000 extra stuff\n1 2000\tx y z\n2 3000 \n", 3, "<nil>", "no records dropped"},
		{"blank lines", "\n\n0 1000\n\n\n1 2000\n\n", 2, "<nil>", "no records dropped"},
		{"labels 00 and 3", "00 1000\n3 2000\n002 3000\n", 2,
			"memtrace: din line 2: unknown label 3",
			"1 records dropped (unknown-label 1); first: memtrace: din line 2: unknown label 3"},
		{"signed labels", "+1 1000\n-0 2000\n", 2, "<nil>", "no records dropped"},
		{"unicode whitespace", "0 1000\n \n1 2000\u00852\n", 2, "<nil>", "no records dropped"},
		{"every fault class", "2 100\n2\nx 1000\n0 zz\n7 1000\n0 ffffffffffffffff\n0 0x10\n1 200\n", 2,
			`memtrace: din line 2: want "<label> <addr>", got "2"`,
			`6 records dropped (address-range 1, bad-address 2, bad-label 1, short-line 1, unknown-label 1); ` +
				`first: memtrace: din line 2: want "<label> <addr>", got "2"`},
		{"line straddling the refill", good, goodN + 2, "<nil>", "no records dropped"},
		{"fault straddling the refill", bad, badN + 1, badAddr, "1 records dropped (bad-address 1); first: " + badAddr},
		{"canonical line 18 bytes before the refill", edge18, edge18N + 2, "<nil>", "no records dropped"},
		{"canonical line 19 bytes before the refill", edge19, edge19N + 2, "<nil>", "no records dropped"},
		{"canonical line 20 bytes before the refill", edge20, edge20N + 2, "<nil>", "no records dropped"},
		{"many lines with faults", many, 20000, `memtrace: din line 98: bad label "garbage"`,
			`206 records dropped (bad-label 206); first: memtrace: din line 98: bad label "garbage"`},
		{"line over 1 MiB", long, 2,
			fmt.Sprintf("memtrace: din line 2: line exceeds %d bytes", maxDinLine),
			fmt.Sprintf("1 records dropped (line-too-long 1); first: memtrace: din line 2: line exceeds %d bytes", maxDinLine)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := []byte(tc.in)
			for _, lenient := range []bool{false, true} {
				ref := decodeDin(t, in, dinReaders[0].wrap, lenient, dinWays[0].pull)
				if lenient {
					if len(ref.recs) != tc.records {
						t.Errorf("lenient: %d records, want %d", len(ref.recs), tc.records)
					}
					if ref.deg.String() != tc.degraded {
						t.Errorf("lenient: Degradation %q, want %q", ref.deg.String(), tc.degraded)
					}
					if ref.err != "<nil>" {
						t.Errorf("lenient: Err = %s", ref.err)
					}
				} else if ref.err != tc.strict {
					t.Errorf("strict: Err %q, want %q", ref.err, tc.strict)
				}
				if ref.decoded != uint64(len(ref.recs)) {
					t.Errorf("lenient=%t: memtrace_records_total = %d, delivered %d", lenient, ref.decoded, len(ref.recs))
				}
				for _, rd := range dinReaders {
					for _, way := range dinWays {
						got := decodeDin(t, in, rd.wrap, lenient, way.pull)
						label := fmt.Sprintf("lenient=%t %s/%s", lenient, rd.name, way.name)
						if !slices.Equal(got.recs, ref.recs) {
							t.Errorf("%s: %d records differ from the Next loop's %d", label, len(got.recs), len(ref.recs))
						}
						if got.err != ref.err {
							t.Errorf("%s: Err %q, want %q", label, got.err, ref.err)
						}
						if !reflect.DeepEqual(got.deg, ref.deg) {
							t.Errorf("%s: Degradation %+v, want %+v", label, got.deg, ref.deg)
						}
						if got.decoded != ref.decoded {
							t.Errorf("%s: memtrace_records_total %d, want %d", label, got.decoded, ref.decoded)
						}
					}
				}
			}
		})
	}
}

// TestDinFaultLineNumberFarIn checks that a fault after 100,000 good
// lines is reported at its own line number, in strict mode's error and
// in lenient mode's first-fault detail, whichever way the stream is
// pulled.
func TestDinFaultLineNumberFarIn(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100000; i++ {
		fmt.Fprintf(&sb, "%d %x\n", i%3, 0x4000+i*8)
	}
	sb.WriteString("0 nothex\n2 10\n")
	in := []byte(sb.String())
	const want = `memtrace: din line 100001: bad address "nothex"`
	for _, way := range dinWays {
		strict := decodeDin(t, in, dinReaders[0].wrap, false, way.pull)
		if strict.err != want || len(strict.recs) != 100000 {
			t.Errorf("%s strict: %d records, Err %q; want 100000 and %q", way.name, len(strict.recs), strict.err, want)
		}
		lenient := decodeDin(t, in, dinReaders[0].wrap, true, way.pull)
		if lenient.deg.First != want || len(lenient.recs) != 100001 {
			t.Errorf("%s lenient: %d records, first fault %q; want 100001 and %q",
				way.name, len(lenient.recs), lenient.deg.First, want)
		}
	}
}

// scriptedReader returns its reads in order, each with its error, then
// io.EOF.
type scriptedReader []struct {
	data string
	err  error
}

func (s *scriptedReader) Read(p []byte) (int, error) {
	if len(*s) == 0 {
		return 0, io.EOF
	}
	r := (*s)[0]
	*s = (*s)[1:]
	return copy(p, r.data), r.err
}

// TestDinReadErrorMidLine checks that a read error which arrives with
// the start of a line ends the stream with that error, after the whole
// lines read before it, even when the reader would go on to deliver the
// rest of the line.
func TestDinReadErrorMidLine(t *testing.T) {
	flaky := errors.New("flaky read")
	for _, way := range dinWays {
		r := &scriptedReader{{"0 1000\n1 20", flaky}, {"00\n2 3000\n", nil}}
		dr := NewDineroReader(r)
		got := way.pull(t, dr)
		want := []Access{{Addr: 0x1000, Kind: Load}}
		if !slices.Equal(got, want) || fmt.Sprint(dr.Err()) != "memtrace: reading din trace: flaky read" {
			t.Errorf("%s: %v, Err %v; want %v and the read error", way.name, got, dr.Err(), want)
		}
	}
}
