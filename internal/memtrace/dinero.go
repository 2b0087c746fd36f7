package memtrace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Dinero "din" text trace format interoperability. The classic dineroIII
// input format is one reference per line:
//
//	<label> <hex-address>
//
// where label 0 is a data read, 1 a data write, and 2 an instruction
// fetch. Everything after the address on a line is ignored, as dinero
// does. This lets traces move between this simulator and the many tools
// that speak din.

const (
	dinRead   = 0
	dinWrite  = 1
	dinIfetch = 2
)

func dinLabel(k Kind) int {
	switch k {
	case Load:
		return dinRead
	case Store:
		return dinWrite
	default:
		return dinIfetch
	}
}

// WriteDinero writes the trace to w in din format. It returns the number
// of records written.
func (t *Trace) WriteDinero(w io.Writer) (int, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	n := 0
	var err error
	t.Each(func(a Access) {
		if err != nil {
			return
		}
		if _, werr := fmt.Fprintf(bw, "%d %x\n", dinLabel(a.Kind), uint64(a.Addr)); werr != nil {
			err = werr
			return
		}
		n++
	})
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// maxDinLine caps how long a single din line may grow before it is
// judged malformed: 1 MiB is orders of magnitude beyond any legitimate
// "<label> <addr>" record. Overlong lines are a fault of their own
// ("line-too-long"), not a stream-fatal condition — lenient mode skips
// them like any other malformed line.
const maxDinLine = 1 << 20

// telFlushEvery is the streaming readers' telemetry flush cadence in
// records: the live decoded-record counter accumulates in a local
// buffer (one plain increment per record) and is published at this
// cadence and at end of stream, so a /metrics scrape lags the decode by
// at most this many records.
const telFlushEvery = 4096

// DineroReader is a streaming Decoder over din-format text. Blank lines
// are skipped; trailing fields after the address are ignored. In strict
// mode (the default) a malformed line terminates the stream with an error
// reported by Err, including the line number; in lenient mode (see
// Lenient) malformed lines are counted and skipped instead.
//
// Well-formed lines decode on an allocation-free fast path: lines are
// pulled straight from the buffered reader's internal window (or a
// reusable spill buffer when they straddle a refill) and the label and
// hex address are parsed in place. Malformed or unusual lines fall back
// to the slow path, which allocates but classifies the fault exactly.
type DineroReader struct {
	br      *bufio.Reader
	lineBuf []byte // reusable spill for lines straddling a buffer refill
	lineNo  int
	decodeState
}

// NewDineroReader returns a streaming reader over din records in r.
func NewDineroReader(r io.Reader) *DineroReader {
	return &DineroReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// dinLineFault classifies one malformed line: reason is the stable fault
// class used in Degradation.Reasons, detail the human-readable message.
func dinLineFault(lineNo int, line string) (reason, detail string, a Access, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "short-line", fmt.Sprintf("memtrace: din line %d: want \"<label> <addr>\", got %q", lineNo, line), Access{}, false
	}
	label, err := strconv.Atoi(fields[0])
	if err != nil {
		return "bad-label", fmt.Sprintf("memtrace: din line %d: bad label %q", lineNo, fields[0]), Access{}, false
	}
	addr, err := strconv.ParseUint(fields[1], 16, 64)
	if err != nil {
		return "bad-address", fmt.Sprintf("memtrace: din line %d: bad address %q", lineNo, fields[1]), Access{}, false
	}
	if Addr(addr) > MaxAddr {
		return "address-range", fmt.Sprintf("memtrace: din line %d: address 0x%x exceeds the 62-bit range", lineNo, addr), Access{}, false
	}
	var kind Kind
	switch label {
	case dinRead:
		kind = Load
	case dinWrite:
		kind = Store
	case dinIfetch:
		kind = Ifetch
	default:
		return "unknown-label", fmt.Sprintf("memtrace: din line %d: unknown label %d", lineNo, label), Access{}, false
	}
	return "", "", Access{Addr: Addr(addr), Kind: kind}, true
}

// readLine returns the next line without its terminator. The returned
// slice aliases the reader's internal buffer (or dr.lineBuf) and is only
// valid until the next readLine call. tooLong reports a line that
// exceeded maxDinLine; its content is discarded but the stream remains
// positioned at the following line. eof reports a clean end of input; a
// non-nil err is an I/O failure.
func (dr *DineroReader) readLine() (line []byte, tooLong, eof bool, err error) {
	dr.lineBuf = dr.lineBuf[:0]
	for {
		frag, e := dr.br.ReadSlice('\n')
		switch e {
		case nil:
			frag = frag[:len(frag)-1] // strip '\n'
			if len(dr.lineBuf)+len(frag) > maxDinLine {
				return nil, true, false, nil
			}
			if len(dr.lineBuf) == 0 {
				return frag, false, false, nil
			}
			dr.lineBuf = append(dr.lineBuf, frag...)
			return dr.lineBuf, false, false, nil
		case bufio.ErrBufferFull:
			if len(dr.lineBuf)+len(frag) > maxDinLine {
				// Discard the rest of the runaway line so the next read
				// starts at the following record.
				for {
					_, e := dr.br.ReadSlice('\n')
					if e == nil || e == io.EOF {
						return nil, true, false, nil
					}
					if e != bufio.ErrBufferFull {
						return nil, true, false, e
					}
				}
			}
			dr.lineBuf = append(dr.lineBuf, frag...)
		case io.EOF:
			if len(frag) == 0 && len(dr.lineBuf) == 0 {
				return nil, false, true, nil
			}
			if len(dr.lineBuf)+len(frag) > maxDinLine {
				return nil, true, false, nil
			}
			dr.lineBuf = append(dr.lineBuf, frag...) // final unterminated line
			return dr.lineBuf, false, false, nil
		default:
			return nil, false, false, e
		}
	}
}

// isDinSpace reports whether c is intra-line whitespace on the fast
// path. Exotic (non-ASCII) whitespace diverts to the slow path, which
// applies the full Unicode rules.
func isDinSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' }

// parseDinLine decodes one well-formed din line without allocating.
// blank reports an all-whitespace line; ok reports a valid record.
// Anything else (malformed or merely unusual) returns ok == false and is
// re-parsed by the caller on the allocating slow path for exact fault
// classification.
func parseDinLine(line []byte) (a Access, blank, ok bool) {
	i := 0
	for i < len(line) && isDinSpace(line[i]) {
		i++
	}
	if i == len(line) {
		return Access{}, true, false
	}

	label := 0
	start := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		label = label*10 + int(line[i]-'0')
		if label > dinIfetch {
			return Access{}, false, false // unknown label (or longer digit run)
		}
		i++
	}
	if i == start || i == len(line) || !isDinSpace(line[i]) {
		return Access{}, false, false
	}
	for i < len(line) && isDinSpace(line[i]) {
		i++
	}

	var addr uint64
	digits := 0
	for i < len(line) {
		c := line[i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			goto addrDone
		}
		if digits == 16 {
			return Access{}, false, false // >64-bit literal (or leading zeros): slow path
		}
		addr = addr<<4 | v
		digits++
		i++
	}
addrDone:
	if digits == 0 || (i < len(line) && !isDinSpace(line[i])) {
		return Access{}, false, false
	}
	if Addr(addr) > MaxAddr {
		return Access{}, false, false // address-range: slow path
	}

	var kind Kind
	switch label {
	case dinRead:
		kind = Load
	case dinWrite:
		kind = Store
	default:
		kind = Ifetch
	}
	return Access{Addr: Addr(addr), Kind: kind}, false, true
}

// Next implements Source.
func (dr *DineroReader) Next() (Access, bool) {
	if dr.err != nil || dr.done {
		return Access{}, false
	}
	for {
		line, tooLong, eof, err := dr.readLine()
		if err != nil {
			dr.fail(fmt.Errorf("memtrace: reading din trace: %w", err))
			return Access{}, false
		}
		if eof {
			break
		}
		dr.lineNo++
		if tooLong {
			detail := fmt.Sprintf("memtrace: din line %d: line exceeds %d bytes", dr.lineNo, maxDinLine)
			if dr.malformed("line-too-long", detail, errors.New(detail)) {
				continue
			}
			return Access{}, false
		}
		a, blank, ok := parseDinLine(line)
		if blank {
			continue
		}
		if !ok {
			// Slow path: allocate and classify the fault exactly.
			trimmed := strings.TrimSpace(string(line))
			if trimmed == "" {
				continue // blank under the full Unicode whitespace rules
			}
			reason, detail, a2, ok2 := dinLineFault(dr.lineNo, trimmed)
			if ok2 {
				// Valid but unusual (Unicode whitespace, redundant leading
				// zeros, …): deliver it like any other record.
				dr.countDecoded()
				return a2, true
			}
			if dr.malformed(reason, detail, errors.New(detail)) {
				continue
			}
			return Access{}, false
		}
		dr.countDecoded()
		return a, true
	}
	dr.done = true
	dr.telDecoded.Flush()
	return Access{}, false
}

// countDecoded buffers one decoded record into the live counter,
// publishing at the flush cadence.
func (dr *DineroReader) countDecoded() {
	dr.telDecoded.Inc()
	if dr.telDecoded.Pending() >= telFlushEvery {
		dr.telDecoded.Flush()
	}
}

// NextChunk implements ChunkSource: it decodes up to len(dst) records
// into dst with direct (non-interface) Next calls.
func (dr *DineroReader) NextChunk(dst []Access) int {
	n := 0
	for n < len(dst) {
		a, ok := dr.Next()
		if !ok {
			break
		}
		dst[n] = a
		n++
	}
	return n
}

// ReadDinero reads a complete din-format trace from r, materializing it in
// memory. For large files prefer NewDineroReader, which streams.
func ReadDinero(r io.Reader) (*Trace, error) {
	dr := NewDineroReader(r)
	t := NewTrace(1 << 12)
	Drain(dr, t)
	if err := dr.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// DineroWriter is a streaming Sink that writes din format.
type DineroWriter struct {
	bw    *bufio.Writer
	count uint64
	err   error
}

// NewDineroWriter starts writing din records to w.
func NewDineroWriter(w io.Writer) *DineroWriter {
	return &DineroWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Access implements Sink. Errors are sticky and reported by Close.
func (dw *DineroWriter) Access(a Access) {
	if dw.err != nil {
		return
	}
	if _, err := fmt.Fprintf(dw.bw, "%d %x\n", dinLabel(a.Kind), uint64(a.Addr)); err != nil {
		dw.err = err
		return
	}
	dw.count++
}

// Count returns records written so far.
func (dw *DineroWriter) Count() uint64 { return dw.count }

// Close flushes buffered output and returns the first write error.
func (dw *DineroWriter) Close() error {
	if dw.err != nil {
		return dw.err
	}
	return dw.bw.Flush()
}

var _ Sink = (*DineroWriter)(nil)
