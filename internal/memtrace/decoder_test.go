package memtrace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestParseFormat(t *testing.T) {
	for name, f := range map[string]Format{"jtr": JTR, "din": Din} {
		if got, err := ParseFormat(name); err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", name, got, err, f)
		}
	}
	for _, name := range []string{"", "xml", "JTR", "jtr1", "dinero"} {
		if _, err := ParseFormat(name); !errors.Is(err, ErrUnknownFormat) || !strings.Contains(err.Error(), name) {
			t.Errorf("ParseFormat(%q) error = %v, want ErrUnknownFormat naming it", name, err)
		}
	}
}

// NewDecoder opens both formats the way their own readers do, and its
// failures are plain errors with no half-built Decoder behind them.
func TestNewDecoder(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Access{Addr: 0x40, Kind: Ifetch})
	tr.Append(Access{Addr: 0x80, Kind: Store})
	var jtr, din bytes.Buffer
	if _, err := tr.WriteTo(&jtr); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteDinero(&din); err != nil {
		t.Fatal(err)
	}
	for f, data := range map[Format][]byte{JTR: jtr.Bytes(), Din: din.Bytes()} {
		dec, err := NewDecoder(bytes.NewReader(data), f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		got := collect(dec)
		if dec.Err() != nil || len(got) != 2 || got[0] != tr.At(0) || got[1] != tr.At(1) {
			t.Errorf("%v: decoded %v, err %v; want %v %v", f, got, dec.Err(), tr.At(0), tr.At(1))
		}
	}

	if dec, err := NewDecoder(bytes.NewReader(jtr.Bytes()[:10]), JTR); err == nil || dec != nil {
		t.Errorf("truncated header: NewDecoder = %v, %v; want a nil Decoder and an error", dec, err)
	}
	if dec, err := NewDecoder(bytes.NewReader(nil), Format(0)); !errors.Is(err, ErrUnknownFormat) || dec != nil {
		t.Errorf("Format(0): NewDecoder = %v, %v; want ErrUnknownFormat", dec, err)
	}
}
