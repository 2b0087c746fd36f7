package memtrace

import (
	"bytes"
	"strings"
	"testing"
)

// collect pulls a source dry, returning the accesses it delivered.
func collect(src Source) []Access {
	var out []Access
	Each(src, func(a Access) { out = append(out, a) })
	return out
}

// Every din fault class: strict mode fails the stream, lenient mode skips
// the bad line (counting it under the right reason) and keeps going.
func TestDineroLenientVsStrictPerFaultClass(t *testing.T) {
	cases := []struct {
		name   string
		line   string // the malformed line, spliced between two good ones
		reason string
	}{
		{"short-line", "2", "short-line"},
		{"bad-label", "x 1000", "bad-label"},
		{"bad-address", "0 zzzz", "bad-address"},
		{"address-range", "0 ffffffffffffffff", "address-range"},
		{"unknown-label", "7 1000", "unknown-label"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := "2 100\n" + tc.line + "\n0 200\n"

			strict := NewDineroReader(strings.NewReader(in))
			got := collect(strict)
			if strict.Err() == nil {
				t.Fatal("strict mode accepted the malformed line")
			}
			if len(got) != 1 {
				t.Fatalf("strict mode delivered %d records before failing, want 1", len(got))
			}

			lenientR := NewDineroReader(strings.NewReader(in))
			lenientR.Lenient(0)
			got = collect(lenientR)
			if err := lenientR.Err(); err != nil {
				t.Fatalf("lenient mode failed: %v", err)
			}
			want := []Access{{Addr: 0x100, Kind: Ifetch}, {Addr: 0x200, Kind: Load}}
			if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("lenient mode delivered %v, want %v", got, want)
			}
			d := lenientR.Degradation()
			if d.Dropped != 1 || d.Reasons[tc.reason] != 1 {
				t.Errorf("degradation = %+v, want 1 drop under %q", d, tc.reason)
			}
			if d.First == "" {
				t.Error("degradation did not record the first malformed line")
			}
		})
	}
}

func TestDineroLenientCap(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString("bogus line\n")
	}
	dr := NewDineroReader(strings.NewReader(sb.String()))
	dr.Lenient(3)
	got := collect(dr)
	if len(got) != 0 {
		t.Fatalf("delivered %d records from pure garbage", len(got))
	}
	err := dr.Err()
	if err == nil {
		t.Fatal("exceeding the drop cap did not fail the stream")
	}
	if !strings.Contains(err.Error(), "exceed the lenient cap") {
		t.Errorf("cap error = %v", err)
	}
}

// jtrWithInvalidKind builds a binary trace whose middle record carries an
// out-of-range kind — the shape a bit flip in the top two bits leaves.
func jtrWithInvalidKind(t *testing.T) []byte {
	t.Helper()
	tr := NewTrace(0)
	tr.Append(Access{Addr: 0x100, Kind: Ifetch})
	tr.Append(Access{Addr: 0x200, Kind: Load})
	tr.Append(Access{Addr: 0x300, Kind: Store})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Record 1 starts at byte 16+8; its top byte is data[16+8+7].
	data[16+8+7] |= 0xc0 // kind = 3
	return data
}

func TestReaderLenientInvalidKind(t *testing.T) {
	data := jtrWithInvalidKind(t)

	strict, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(strict)
	if strict.Err() == nil {
		t.Fatal("strict mode accepted the invalid kind")
	}
	if len(got) != 1 {
		t.Fatalf("strict mode delivered %d records before failing, want 1", len(got))
	}

	lr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lr.Lenient(0)
	got = collect(lr)
	if err := lr.Err(); err != nil {
		t.Fatalf("lenient mode failed: %v", err)
	}
	if len(got) != 2 || got[0].Addr != 0x100 || got[1].Addr != 0x300 {
		t.Fatalf("lenient mode delivered %v, want records 0 and 2", got)
	}
	d := lr.Degradation()
	if d.Dropped != 1 || d.Reasons["invalid-kind"] != 1 {
		t.Errorf("degradation = %+v, want 1 invalid-kind drop", d)
	}
}

func TestReaderLenientTruncatedTail(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 5; i++ {
		tr.Append(Access{Addr: Addr(0x100 * (i + 1)), Kind: Load})
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:16+3*8+4] // three whole records and half a fourth

	strict, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	collect(strict)
	if strict.Err() == nil {
		t.Fatal("strict mode accepted the truncated trace")
	}

	lr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lr.Lenient(0)
	got := collect(lr)
	if err := lr.Err(); err != nil {
		t.Fatalf("lenient mode failed: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("lenient mode salvaged %d records, want 3", len(got))
	}
	d := lr.Degradation()
	if d.Reasons["truncated-tail"] != 1 {
		t.Errorf("degradation = %+v, want a truncated-tail note", d)
	}
	// After the truncated tail the stream must stay ended.
	if _, ok := lr.Next(); ok {
		t.Error("stream restarted after truncation")
	}
}

func TestReaderLenientZeroFaultIdentical(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 1000; i++ {
		tr.Append(Access{Addr: Addr(i * 64), Kind: Kind(i % 3)})
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	strict, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lr.Lenient(0)
	a, b := collect(strict), collect(lr)
	if strict.Err() != nil || lr.Err() != nil {
		t.Fatalf("errs: %v, %v", strict.Err(), lr.Err())
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if lr.Degradation().Degraded() {
		t.Error("clean input reported degradation")
	}
}
