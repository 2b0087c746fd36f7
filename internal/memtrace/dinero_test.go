package memtrace

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestDineroRoundTrip(t *testing.T) {
	tr := randomTrace(500, 9)
	var buf bytes.Buffer
	n, err := tr.WriteDinero(&buf)
	if err != nil {
		t.Fatalf("WriteDinero: %v", err)
	}
	if n != tr.Len() {
		t.Errorf("wrote %d records, want %d", n, tr.Len())
	}
	got, err := ReadDinero(&buf)
	if err != nil {
		t.Fatalf("ReadDinero: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Error("din round trip differs")
	}
}

func TestDineroFormatExact(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Access{Addr: 0x1000, Kind: Load})
	tr.Append(Access{Addr: 0x2000, Kind: Store})
	tr.Append(Access{Addr: 0x40ab, Kind: Ifetch})
	var buf bytes.Buffer
	if _, err := tr.WriteDinero(&buf); err != nil {
		t.Fatal(err)
	}
	want := "0 1000\n1 2000\n2 40ab\n"
	if buf.String() != want {
		t.Errorf("din output = %q, want %q", buf.String(), want)
	}
}

func TestReadDineroTolerance(t *testing.T) {
	// Blank lines and trailing fields (as emitted by some tracers) are
	// accepted.
	in := "0 1000 extra stuff\n\n  2 2000\n1 3000\n"
	tr, err := ReadDinero(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.At(1).Kind != Ifetch || tr.At(1).Addr != 0x2000 {
		t.Errorf("record 1 = %v", tr.At(1))
	}
}

func TestReadDineroErrors(t *testing.T) {
	cases := []string{
		"0\n",                  // missing address
		"x 1000\n",             // bad label
		"0 zz\n",               // bad address
		"7 1000\n",             // unknown label
		"0 4000000000000000\n", // address above the 62-bit packed range
	}
	for _, in := range cases {
		if _, err := ReadDinero(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestDineroWriterStreaming(t *testing.T) {
	var buf bytes.Buffer
	dw := NewDineroWriter(&buf)
	tr := randomTrace(100, 4)
	tr.Each(dw.Access)
	if dw.Count() != 100 {
		t.Errorf("count = %d", dw.Count())
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDinero(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Error("streamed din trace differs")
	}
}

func TestDineroWriterStickyError(t *testing.T) {
	dw := NewDineroWriter(&failAfter{n: 8})
	for i := 0; i < 1<<14; i++ {
		dw.Access(Access{Addr: Addr(i), Kind: Load})
	}
	if err := dw.Close(); err == nil {
		t.Fatal("Close succeeded despite write failure")
	}
}

// TestDineroLenientLineTooLong is the regression test for the
// Scanner-limit bug: a din line longer than the maxDinLine cap used to
// abort the whole replay with bufio.ErrTooLong even in lenient mode.
// It must instead be counted and skipped as its own degradation reason,
// with the surrounding records decoded intact.
func TestDineroLenientLineTooLong(t *testing.T) {
	var in strings.Builder
	in.WriteString("0 1000\n")
	in.WriteString("0 2000 ")
	for i := 0; i < maxDinLine; i++ { // pad one line past the cap
		in.WriteByte('x')
	}
	in.WriteString("\n2 3000\n")

	dr := NewDineroReader(strings.NewReader(in.String()))
	dr.Lenient(0)
	var got []Access
	Each(dr, func(a Access) { got = append(got, a) })
	if err := dr.Err(); err != nil {
		t.Fatalf("lenient replay failed on an overlong line: %v", err)
	}
	if len(got) != 2 || got[0].Addr != 0x1000 || got[1].Addr != 0x3000 {
		t.Fatalf("records around the overlong line lost: %v", got)
	}
	d := dr.Degradation()
	if d.Dropped != 1 || d.Reasons["line-too-long"] != 1 {
		t.Errorf("degradation = %+v, want 1 line-too-long drop", d)
	}
	if !strings.Contains(d.First, "din line 2") {
		t.Errorf("first-fault detail should name line 2: %q", d.First)
	}
}

// Strict mode must still fail on an overlong line — but with an error
// naming the line, not a bare scanner error.
func TestDineroStrictLineTooLong(t *testing.T) {
	var in strings.Builder
	in.WriteString("0 1000\n1 ")
	for i := 0; i < maxDinLine; i++ {
		in.WriteByte('f')
	}
	in.WriteString("\n")
	dr := NewDineroReader(strings.NewReader(in.String()))
	if a, ok := dr.Next(); !ok || a.Addr != 0x1000 {
		t.Fatalf("first record = %v, %v", a, ok)
	}
	if _, ok := dr.Next(); ok {
		t.Fatal("overlong line delivered a record")
	}
	err := dr.Err()
	if err == nil {
		t.Fatal("strict mode accepted an overlong line")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name the line: %v", err)
	}
}

// The zero-alloc fast path and the allocating slow path must agree:
// unusual-but-valid lines (Unicode whitespace, redundant leading zeros,
// CRLF endings, no trailing newline) decode to the same records.
func TestDineroFastSlowPathAgree(t *testing.T) {
	in := "0 1000\r\n" + // CRLF
		"1\t00000000000000002000\n" + // tab + redundant leading zeros
		"2 3000\n" + // non-breaking space separator (slow path)
		" \n" + // Unicode-whitespace-only line: skipped
		"0 4000" // unterminated final line
	tr, err := ReadDinero(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Access{
		{Addr: 0x1000, Kind: Load},
		{Addr: 0x2000, Kind: Store},
		{Addr: 0x3000, Kind: Ifetch},
		{Addr: 0x4000, Kind: Load},
	}
	if tr.Len() != len(want) {
		t.Fatalf("decoded %d records, want %d", tr.Len(), len(want))
	}
	for i, w := range want {
		if tr.At(i) != w {
			t.Errorf("record %d = %v, want %v", i, tr.At(i), w)
		}
	}
}

// Lines straddling the buffered reader's 64 KiB window must reassemble
// losslessly via the spill buffer.
func TestDineroLineAcrossBufferBoundary(t *testing.T) {
	var in strings.Builder
	in.WriteString("0 1000")
	for in.Len() < (1<<16)+8 { // push the line across the 64 KiB refill
		in.WriteString(" pad")
	}
	in.WriteString("\n2 2000\n")
	tr, err := ReadDinero(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.At(0).Addr != 0x1000 || tr.At(1).Addr != 0x2000 {
		t.Fatalf("records = %d %v %v", tr.Len(), tr.At(0), tr.At(1))
	}
}

// TestDineroWriterMatchesSprintf pins the din writer's bytes to the
// "%d %x\n" format it replaced, at the edges of the address range and at
// random addresses, through both DineroWriter and Trace.WriteDinero.
func TestDineroWriterMatchesSprintf(t *testing.T) {
	tr := NewTrace(0)
	for _, addr := range []Addr{0, 1, 0xf, 0x10, MaxAddr} {
		for k := Kind(0); k < numKinds; k++ {
			tr.Append(Access{Addr: addr, Kind: k})
		}
	}
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		tr.Append(Access{Addr: Addr(r.Uint64()>>(2+r.Intn(62))) & MaxAddr, Kind: Kind(r.Intn(int(numKinds)))})
	}
	var want strings.Builder
	tr.Each(func(a Access) { fmt.Fprintf(&want, "%d %x\n", dinLabel(a.Kind), uint64(a.Addr)) })

	var streamed bytes.Buffer
	dw := NewDineroWriter(&streamed)
	tr.Each(dw.Access)
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	n, err := tr.WriteDinero(&whole)
	if err != nil || n != tr.Len() {
		t.Fatalf("WriteDinero wrote %d records, %v; want %d", n, err, tr.Len())
	}
	for name, got := range map[string]string{"DineroWriter": streamed.String(), "WriteDinero": whole.String()} {
		if got != want.String() {
			t.Errorf("%s output differs from %%d %%x formatting", name)
		}
	}
}
