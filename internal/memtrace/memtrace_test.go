package memtrace

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Ifetch, "ifetch"},
		{Load, "load"},
		{Store, "store"},
		{Kind(9), "Kind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestKindIsData(t *testing.T) {
	if Ifetch.IsData() {
		t.Error("Ifetch.IsData() = true, want false")
	}
	if !Load.IsData() {
		t.Error("Load.IsData() = false, want true")
	}
	if !Store.IsData() {
		t.Error("Store.IsData() = false, want true")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(addr uint64, kindRaw uint8) bool {
		a := Access{Addr: Addr(addr & uint64(addrMask)), Kind: Kind(kindRaw % numKinds)}
		return pack(a).unpack() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackBoundaryAddress(t *testing.T) {
	// The largest representable address must round-trip exactly through
	// the packed record.
	a := Access{Addr: MaxAddr, Kind: Store}
	if got := pack(a).unpack(); got != a {
		t.Errorf("round trip = %+v, want %+v", got, a)
	}
}

func TestPackRejectsWideAddresses(t *testing.T) {
	// Addresses wider than 62 bits used to be silently truncated into a
	// different address; they must now be rejected before they can
	// corrupt a trace.
	defer func() {
		if recover() == nil {
			t.Fatal("pack accepted an address above MaxAddr")
		}
	}()
	pack(Access{Addr: MaxAddr + 1, Kind: Store})
}

func TestAppendRejectsWideAddresses(t *testing.T) {
	tr := NewTrace(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Append accepted an address above MaxAddr")
		}
	}()
	tr.Append(Access{Addr: Addr(^uint64(0)), Kind: Load})
}

func TestTraceCounts(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Access{0x100, Ifetch})
	tr.Append(Access{0x104, Ifetch})
	tr.Append(Access{0x2000, Load})
	tr.Append(Access{0x3000, Store})
	tr.Append(Access{0x108, Ifetch})

	if got := tr.Len(); got != 5 {
		t.Errorf("Len = %d, want 5", got)
	}
	if got := tr.Instructions(); got != 3 {
		t.Errorf("Instructions = %d, want 3", got)
	}
	if got := tr.Loads(); got != 1 {
		t.Errorf("Loads = %d, want 1", got)
	}
	if got := tr.Stores(); got != 1 {
		t.Errorf("Stores = %d, want 1", got)
	}
	if got := tr.DataRefs(); got != 2 {
		t.Errorf("DataRefs = %d, want 2", got)
	}
	if got := tr.Count(Load); got != 1 {
		t.Errorf("Count(Load) = %d, want 1", got)
	}
}

func TestTraceAtAndEachAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTrace(100)
	for i := 0; i < 100; i++ {
		tr.Append(Access{Addr(rng.Uint64() & uint64(addrMask)), Kind(rng.Intn(numKinds))})
	}
	i := 0
	tr.Each(func(a Access) {
		if a != tr.At(i) {
			t.Fatalf("Each access %d = %v, At = %v", i, a, tr.At(i))
		}
		i++
	})
	if i != tr.Len() {
		t.Fatalf("Each visited %d accesses, want %d", i, tr.Len())
	}
}

func TestTraceSlice(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 10; i++ {
		tr.Append(Access{Addr(i * 16), Load})
	}
	s := tr.Slice(3, 7)
	if s.Len() != 4 {
		t.Fatalf("Slice len = %d, want 4", s.Len())
	}
	for i := 0; i < 4; i++ {
		if got, want := s.At(i).Addr, Addr((i+3)*16); got != want {
			t.Errorf("slice[%d].Addr = %#x, want %#x", i, got, want)
		}
	}
	if s.DataRefs() != 4 {
		t.Errorf("slice DataRefs = %d, want 4", s.DataRefs())
	}
}

func TestTee(t *testing.T) {
	a, b := NewTrace(0), NewTrace(0)
	sink := Tee(a, b)
	sink.Access(Access{0x40, Load})
	sink.Access(Access{0x80, Ifetch})
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatalf("tee lengths = %d, %d, want 2, 2", a.Len(), b.Len())
	}
	if a.At(1) != b.At(1) {
		t.Errorf("tee targets diverge: %v vs %v", a.At(1), b.At(1))
	}
}

func randomTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := NewTrace(n)
	for i := 0; i < n; i++ {
		tr.Append(Access{Addr(rng.Uint64() & uint64(addrMask)), Kind(rng.Intn(numKinds))})
	}
	return tr
}

func tracesEqual(a, b *Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

func TestFileRoundTrip(t *testing.T) {
	tr := randomTrace(1000, 42)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if want := int64(16 + 8*tr.Len()); n != want {
		t.Errorf("WriteTo wrote %d bytes, want %d", n, want)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Error("round-tripped trace differs from original")
	}
	if got.Instructions() != tr.Instructions() || got.DataRefs() != tr.DataRefs() {
		t.Error("round-tripped trace counts differ")
	}
}

func TestFileEmptyRoundTrip(t *testing.T) {
	tr := NewTrace(0)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("empty trace round-trip has %d records", got.Len())
	}
}

func TestReadTraceBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("NOPE0000000000000000")
	if _, err := ReadTrace(buf); err == nil {
		t.Fatal("ReadTrace accepted bad magic")
	}
}

func TestReadTraceTruncatedHeader(t *testing.T) {
	buf := bytes.NewBufferString("JTR1")
	if _, err := ReadTrace(buf); err == nil {
		t.Fatal("ReadTrace accepted truncated header")
	}
}

func TestReadTraceTruncatedBody(t *testing.T) {
	tr := randomTrace(10, 7)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadTrace(bytes.NewReader(cut)); err == nil {
		t.Fatal("ReadTrace accepted truncated body")
	}
}

func TestReadTraceImplausibleCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("JTR1")
	buf.Write([]byte{0, 0, 0, 0})
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("ReadTrace accepted implausible record count")
	}
}

func TestStreamWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := randomTrace(257, 3)
	tr.Each(sw.Access)
	if sw.Count() != 257 {
		t.Errorf("Count = %d, want 257", sw.Count())
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, err := ReadTrace(rf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Error("stream-written trace differs from original")
	}
}

// failingSeeker wraps a writer whose writes fail after a threshold, to
// exercise sticky error handling in StreamWriter.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.n -= len(p)
	return len(p), nil
}

func (f *failAfter) Seek(offset int64, whence int) (int64, error) { return 0, nil }

func TestStreamWriterStickyError(t *testing.T) {
	sw, err := NewStreamWriter(&failAfter{n: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<14; i++ { // enough to overflow the bufio buffer
		sw.Access(Access{Addr(i), Load})
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close succeeded despite write failure")
	}
}
