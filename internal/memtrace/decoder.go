package memtrace

import (
	"errors"
	"fmt"
	"io"

	"jouppi/internal/telemetry"
)

// Format is a trace file encoding.
type Format uint8

// The two trace file formats.
const (
	JTR Format = iota + 1 // compact binary, see file.go
	Din                   // dinero text, see dinero.go
)

// ErrUnknownFormat is returned, wrapped with the rejected name, for a
// trace format other than "jtr" (compact binary) or "din" (dinero text).
var ErrUnknownFormat = errors.New("memtrace: unknown trace format (want jtr or din)")

// ParseFormat maps a format name, "jtr" or "din", to its Format.
func ParseFormat(name string) (Format, error) {
	switch name {
	case "jtr":
		return JTR, nil
	case "din":
		return Din, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownFormat, name)
}

// Decoder is a streaming reader over a trace file in either format: the
// way every tool opens a trace. Check Err after the stream ends: a clean
// end of trace leaves it nil. Lenient and Instrument must be called before
// the first Next.
type Decoder interface {
	ChunkSource
	// Err returns the error that terminated the stream, or nil after a
	// clean end of trace.
	Err() error
	// Degradation returns the report of records skipped in lenient mode.
	Degradation() Degradation
	// Lenient switches the decoder to count-and-skip mode: malformed
	// records are noted in the Degradation report and skipped, and a
	// truncated binary tail ends the stream cleanly, instead of failing
	// it. Past maxDrops drops (0 = unlimited) the stream fails like
	// strict mode would.
	Lenient(maxDrops uint64)
	// Instrument attaches live counters: decoded counts records
	// delivered (buffered locally and published every few thousand
	// records and at end of stream, so decoding never touches an
	// atomic), dropped records skipped in lenient mode. Either may be
	// nil.
	Instrument(decoded, dropped *telemetry.Counter)
}

// NewDecoder returns a Decoder over r in format f. A binary trace's
// header is read, and checked, here.
func NewDecoder(r io.Reader, f Format) (Decoder, error) {
	switch f {
	case JTR:
		jr, err := NewReader(r)
		if err != nil {
			return nil, err
		}
		return jr, nil
	case Din:
		return NewDineroReader(r), nil
	}
	return nil, fmt.Errorf("%w: format %d", ErrUnknownFormat, f)
}

var (
	_ Decoder = (*Reader)(nil)
	_ Decoder = (*DineroReader)(nil)
)

// decodeState is what the two file readers share: the error or end that
// stopped the stream, the lenient policy with its report, and the live
// counters. Each reader embeds one, so its Next reaches these fields
// directly.
type decodeState struct {
	err      error
	done     bool
	lenient  bool
	maxDrops uint64 // 0 = unlimited
	report   Degradation

	pending    uint64             // records delivered, not yet published
	telDecoded *telemetry.Counter // live decoded-record counter (nil-safe)
	telDropped *telemetry.Counter // live drop counter (nil-safe)
}

// Err returns the error that terminated the stream, or nil after a clean
// end of trace.
func (s *decodeState) Err() error { return s.err }

// Degradation returns the report of records skipped in lenient mode.
func (s *decodeState) Degradation() Degradation { return s.report }

// Lenient switches the reader to count-and-skip mode; see Decoder.
func (s *decodeState) Lenient(maxDrops uint64) {
	s.lenient = true
	s.maxDrops = maxDrops
}

// Instrument attaches live decoded and dropped counters; see Decoder.
func (s *decodeState) Instrument(decoded, dropped *telemetry.Counter) {
	s.telDecoded = decoded
	s.telDropped = dropped
}

// publish adds the records decoded since the last publish to the live
// counter.
func (s *decodeState) publish() {
	s.telDecoded.Add(s.pending)
	s.pending = 0
}

// fail ends the stream with err, publishing the buffered decode count.
func (s *decodeState) fail(err error) {
	s.publish()
	s.err = err
}

// malformed handles one malformed record. In lenient mode it is noted in
// the report and skipped: malformed returns true and decoding goes on. In
// strict mode the stream fails with strictErr, and in lenient mode it
// fails once the drop cap is exceeded — past that point the input is
// judged too damaged to trust; either way malformed returns false.
func (s *decodeState) malformed(reason, detail string, strictErr error) bool {
	if !s.lenient {
		s.fail(strictErr)
		return false
	}
	s.report.record(reason, detail)
	s.telDropped.Inc()
	if s.maxDrops > 0 && s.report.Dropped > s.maxDrops {
		s.fail(fmt.Errorf("memtrace: %d malformed records exceed the lenient cap of %d (%s)",
			s.report.Dropped, s.maxDrops, s.report.String()))
		return false
	}
	return true
}
