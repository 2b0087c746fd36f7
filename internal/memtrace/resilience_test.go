package memtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

func mustPanicWith(t *testing.T, want error, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, want) {
			t.Fatalf("panicked with %v, want %v", r, want)
		}
	}()
	fn()
}

// The nil guards must name the mistake instead of dereferencing nil deep
// in a drain loop.
func TestNilSourceSinkGuards(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Access{Addr: 0x10, Kind: Load})

	mustPanicWith(t, ErrNilSource, func() { Each(nil, func(Access) {}) })
	mustPanicWith(t, ErrNilSource, func() { Drain(nil, tr) })
	mustPanicWith(t, ErrNilSink, func() { Drain(tr.Source(), nil) })
	mustPanicWith(t, ErrNilSource, func() { NewCountingSource(nil) })
	mustPanicWith(t, ErrNilSource, func() { FilterKinds(nil, Load) })

}

func TestDegradationString(t *testing.T) {
	var d Degradation
	if got := d.String(); got != "no records dropped" {
		t.Errorf("clean String() = %q", got)
	}
	d.record("bad-label", "line 3: bad label")
	d.record("address-range", "line 9")
	d.record("bad-label", "line 12")
	s := d.String()
	for _, want := range []string{"3 records dropped", "bad-label 2", "address-range 1", "line 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if !d.Degraded() {
		t.Error("Degraded() = false after drops")
	}
}

// A corrupt header claiming billions of records must not translate into
// a giant up-front allocation — the body is truncated and decode fails
// long before those records could exist.
func TestReadTraceHugeCountHeaderDoesNotPreallocate(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(0)
	tr.Append(Access{Addr: 0x100, Kind: Load})
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[8:16], 1<<32) // lie: 4G records
	done := make(chan error, 1)
	go func() {
		_, err := ReadTrace(bytes.NewReader(data))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("truncated 4G-record trace accepted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ReadTrace stuck on a huge-count header")
	}
}
