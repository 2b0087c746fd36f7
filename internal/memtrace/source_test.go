package memtrace

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func buildTrace(n int) *Trace {
	tr := NewTrace(n)
	for i := 0; i < n; i++ {
		tr.Append(Access{Addr: Addr(0x1000 + i*4), Kind: Kind(i % int(numKinds))})
	}
	return tr
}

func TestCursorMatchesEach(t *testing.T) {
	tr := buildTrace(100)
	var fromEach []Access
	tr.Each(func(a Access) { fromEach = append(fromEach, a) })
	var fromCursor []Access
	Each(tr.Source(), func(a Access) { fromCursor = append(fromCursor, a) })
	if len(fromEach) != len(fromCursor) {
		t.Fatalf("lengths differ: %d vs %d", len(fromEach), len(fromCursor))
	}
	for i := range fromEach {
		if fromEach[i] != fromCursor[i] {
			t.Fatalf("record %d: %v vs %v", i, fromEach[i], fromCursor[i])
		}
	}
}

func TestCursorsAreIndependent(t *testing.T) {
	tr := buildTrace(10)
	c1, c2 := tr.Source(), tr.Source()
	a1, _ := c1.Next()
	b1, _ := c1.Next()
	a2, _ := c2.Next()
	if a1 != a2 {
		t.Errorf("second cursor did not restart: %v vs %v", a1, a2)
	}
	if b1 == a1 {
		t.Error("first cursor did not advance")
	}
}

func TestCursorExhaustion(t *testing.T) {
	c := buildTrace(1).Source()
	if _, ok := c.Next(); !ok {
		t.Fatal("first Next failed")
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Next(); ok {
			t.Fatal("Next returned a record past the end")
		}
	}
}

func TestDrain(t *testing.T) {
	tr := buildTrace(25)
	out := NewTrace(0)
	Drain(tr.Source(), out)
	if out.Len() != tr.Len() {
		t.Fatalf("drained %d records, want %d", out.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if out.At(i) != tr.At(i) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestCountingSource(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Access{0x100, Ifetch})
	tr.Append(Access{0x104, Ifetch})
	tr.Append(Access{0x2000, Load})
	tr.Append(Access{0x3000, Store})
	cs := NewCountingSource(tr.Source())
	Each(cs, func(Access) {})
	if cs.Instructions() != 2 || cs.Loads() != 1 || cs.Stores() != 1 || cs.Total() != 4 {
		t.Errorf("counts: instr %d load %d store %d total %d",
			cs.Instructions(), cs.Loads(), cs.Stores(), cs.Total())
	}
}

// Reader must decode exactly what ReadTrace does, across record counts
// that land on, before, and after its chunk boundaries (chunk = 1024
// records).
func TestReaderMatchesReadTrace(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 3000} {
		tr := buildTrace(n)
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Count() != uint64(n) {
			t.Fatalf("n=%d: header count %d", n, r.Count())
		}
		i := 0
		Each(r, func(a Access) {
			if a != tr.At(i) {
				t.Fatalf("n=%d record %d: %v vs %v", n, i, a, tr.At(i))
			}
			i++
		})
		if err := r.Err(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if i != n {
			t.Fatalf("n=%d: streamed %d records", n, i)
		}
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	tr := buildTrace(10)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-5] // mid-record cut
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	Each(r, func(Access) {})
	if r.Err() == nil {
		t.Fatal("truncated body not reported")
	}
}

func TestFileRoundTripBoundaryAddress(t *testing.T) {
	// The largest representable address must survive the full binary
	// round trip through both the materializing and the streaming reader.
	tr := NewTrace(0)
	tr.Append(Access{Addr: MaxAddr, Kind: Load})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0).Addr != MaxAddr {
		t.Errorf("materialized round trip = %#x", uint64(got.At(0).Addr))
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := r.Next()
	if !ok || a.Addr != MaxAddr {
		t.Errorf("streamed round trip = %#x, ok %v", uint64(a.Addr), ok)
	}
}

func TestDineroReaderMatchesReadDinero(t *testing.T) {
	tr := buildTrace(50)
	var buf bytes.Buffer
	if _, err := tr.WriteDinero(&buf); err != nil {
		t.Fatal(err)
	}
	dr := NewDineroReader(bytes.NewReader(buf.Bytes()))
	i := 0
	Each(dr, func(a Access) {
		if a != tr.At(i) {
			t.Fatalf("record %d: %v vs %v", i, a, tr.At(i))
		}
		i++
	})
	if err := dr.Err(); err != nil {
		t.Fatal(err)
	}
	if i != tr.Len() {
		t.Fatalf("streamed %d records, want %d", i, tr.Len())
	}
}

func TestDineroReaderRejectsWideAddress(t *testing.T) {
	// 1<<62 is one past MaxAddr; it used to be silently truncated to a
	// different address by the packed representation.
	dr := NewDineroReader(strings.NewReader("0 4000000000000000\n"))
	Each(dr, func(Access) {})
	if dr.Err() == nil {
		t.Fatal("wide address not rejected")
	}
}

// kindFilterDin is a din trace of n records of mixed kinds with a
// malformed line after every 97th record.
func kindFilterDin(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		// Labels 0, 1, 2 are load, store, ifetch; the label pattern has
		// runs of each kind longer than the smallest chunk.
		fmt.Fprintf(&sb, "%d %x\n", (i/5+i/3)%3, 0x1000+i*4)
		if i%97 == 96 {
			sb.WriteString("garbage line\n")
		}
	}
	return sb.String()
}

// TestFilterKinds pins the filter source against a filtering Next loop
// over the same decoder: the same records through Next and through
// NextChunk at several chunk sizes, a short fill only at end of stream,
// and the wrapped decoder's Err and Degradation unchanged, in lenient
// mode with drops and in strict mode, which fails at the first malformed
// line.
func TestFilterKinds(t *testing.T) {
	in := kindFilterDin(10000)
	open := func(lenient bool) Decoder {
		d, err := NewDecoder(strings.NewReader(in), Din)
		if err != nil {
			t.Fatal(err)
		}
		if lenient {
			d.Lenient(0)
		}
		return d
	}
	sides := map[string][]Kind{
		"instr": {Ifetch}, "data": {Load, Store}, "all": {Ifetch, Load, Store}, "none": nil,
	}
	for _, lenient := range []bool{true, false} {
		for name, kinds := range sides {
			label := fmt.Sprintf("lenient=%v/%s", lenient, name)
			ref := open(lenient)
			take := map[Kind]bool{}
			for _, k := range kinds {
				take[k] = true
			}
			var want []Access
			Each(ref, func(a Access) {
				if take[a.Kind] {
					want = append(want, a)
				}
			})
			same := func(how string, d Decoder, got []Access) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Errorf("%s %s: %d records differ from the filtered Next loop's %d", label, how, len(got), len(want))
				}
				if fmt.Sprint(d.Err()) != fmt.Sprint(ref.Err()) {
					t.Errorf("%s %s: Err = %v, want %v", label, how, d.Err(), ref.Err())
				}
				if !reflect.DeepEqual(d.Degradation(), ref.Degradation()) {
					t.Errorf("%s %s: Degradation = %+v, want %+v", label, how, d.Degradation(), ref.Degradation())
				}
			}

			d := open(lenient)
			same("Next", d, collect(FilterKinds(d, kinds...)))
			for _, size := range []int{1, 7, 4096} {
				d := open(lenient)
				same(fmt.Sprintf("NextChunk(%d)", size), d, chunks(t, label, FilterKinds(d, kinds...), size))
			}
		}
	}
}

// chunks drains src through NextChunk with a buffer of size records,
// failing the test if a fill short of size is not the end of the stream.
func chunks(t *testing.T, label string, src ChunkSource, size int) []Access {
	t.Helper()
	var out []Access
	buf := make([]Access, size)
	for {
		n := src.NextChunk(buf)
		out = append(out, buf[:n]...)
		if n < size {
			if more := src.NextChunk(buf); more != 0 {
				t.Errorf("%s: NextChunk(%d) filled %d short of the end; the next call gave %d more", label, size, n, more)
			}
			return out
		}
	}
}
