package memtrace

import (
	"bufio"
	"bytes"
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

// WriteDinero writes the trace to w in din format through a
// DineroWriter. It returns the number of records written.
func (t *Trace) WriteDinero(w io.Writer) (int, error) {
	dw := NewDineroWriter(w)
	t.Each(dw.Access)
	return int(dw.Count()), dw.Close()
}

// maxDinLine caps how long a single din line may grow before it is
// judged malformed: 1 MiB is orders of magnitude beyond any legitimate
// "<label> <addr>" record. Overlong lines are a fault of their own
// ("line-too-long"), not a stream-fatal condition — lenient mode skips
// them like any other malformed line.
const maxDinLine = 1 << 20

// telFlushEvery is the streaming readers' telemetry flush cadence in
// records: the decoded-record count accumulates in a plain pending
// count (no atomics) and is published at this cadence and at end of
// stream, so a /metrics scrape lags the decode by
// at most this many records.
const telFlushEvery = 4096

// DineroReader is a streaming Decoder over din-format text. Blank lines
// are skipped; trailing fields after the address are ignored. In strict
// mode (the default) a malformed line terminates the stream with an error
// reported by Err, including the line number; in lenient mode (see
// Lenient) malformed lines are counted and skipped instead.
//
// Records decode in one scan loop over the buffered reader's window: it
// parses whole '\n'-terminated lines straight out of the window, without
// copying or allocating, and consumes them in one step. Each step first
// tries the canonical line, "<0|1|2> <1-16 hex digits>\n" up to MaxAddr,
// the shape DineroWriter writes: when 19 bytes of the window remain, it
// decodes the line from that fixed window. Every other line, and a line
// that starts less than 19 bytes before the window's end, falls through
// to the general loop, from the same position. The general loop takes
// every line of the shape "<label> <hex>" with optional trailing fields:
// ASCII spaces, tabs, '\r', '\v' or '\f' around the fields, a label of
// 0, 1 or 2 (leading zeros allowed), and up to 16 hex digits of either
// case up to MaxAddr. A line that runs past the window first refills it.
// One line at a time takes the exact path instead, which reads it on its
// own and classifies it with dinLineFault: a line the scan cannot take (a
// malformed line, or an unusual valid one such as Unicode whitespace or
// more than 16 digits), a line longer than the whole buffer, and a final
// line with no '\n'. Next and NextChunk both pull through the scan.
type DineroReader struct {
	br      *bufio.Reader
	lineBuf []byte // reusable spill for an exact-path line that straddles a refill
	lineNo  int
	readErr error // the error that stopped the last refill
	// ahead holds the records Next has decoded but not yet delivered,
	// in aheadBuf.
	ahead    []Access
	aheadBuf [64]Access
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

// The byte classes of the scan loop's table: a hex digit maps to its
// value, and every other byte to one of these.
const (
	dinSpace = 16 + iota // ASCII whitespace inside a line
	dinEOL               // '\n'
	dinOther
)

// dinByte classifies every byte for the scan loop.
var dinByte = func() (t [256]uint8) {
	for i := range t {
		t[i] = dinOther
	}
	for i := range 10 {
		t['0'+i] = uint8(i)
	}
	for i := range 6 {
		t['a'+i] = uint8(10 + i)
		t['A'+i] = uint8(10 + i)
	}
	for _, c := range []byte(" \t\r\v\f") {
		t[c] = dinSpace
	}
	t['\n'] = dinEOL
	return t
}()

// dinKinds maps a din label to its access kind.
var dinKinds = [dinIfetch + 1]Kind{dinRead: Load, dinWrite: Store, dinIfetch: Ifetch}

// scan decodes whole lines out of the buffered window into dst and
// consumes them. It stops when dst is full, at a line it cannot take, or
// at a line that runs past the window; past reports the last. It adds
// the lines it consumed to lineNo and the records to the decoded
// counter once per call.
func (dr *DineroReader) scan(dst []Access) (n int, past bool) {
	// Peeking at, and discarding, bytes already buffered cannot fail.
	win, _ := dr.br.Peek(dr.br.Buffered())
	pos, lines := 0, 0
loop:
	for n < len(dst) {
		// The canonical step: "<0|1|2> <1-16 hex digits>\n", the shape
		// DineroWriter writes, decoded from one fixed 19-byte window (the
		// longest such line). Anything else falls through, from the same
		// position, to the general loop below.
		if len(win)-pos >= 19 {
			b := win[pos : pos+19 : pos+19]
			if label := b[0] - '0'; label <= dinIfetch && b[1] == ' ' {
				var addr uint64
				i := 2
				for ; i < 18; i++ {
					v := dinByte[b[i]]
					if v > 15 {
						break
					}
					addr = addr<<4 | uint64(v)
				}
				if i > 2 && b[i] == '\n' && Addr(addr) <= MaxAddr {
					dst[n] = Access{Addr: Addr(addr), Kind: dinKinds[label]}
					n++
					pos, lines = pos+i+1, lines+1
					continue
				}
			}
		}
		i := pos
		for i < len(win) && dinByte[win[i]] == dinSpace {
			i++
		}
		if i == len(win) {
			past = true
			break
		}
		if win[i] == '\n' {
			pos, lines = i+1, lines+1
			continue
		}
		label, start := 0, i
		for i < len(win) && win[i]-'0' <= 9 {
			if label = label*10 + int(win[i]-'0'); label > dinIfetch {
				break loop
			}
			i++
		}
		if i == len(win) {
			past = true
			break
		}
		if i == start || dinByte[win[i]] != dinSpace {
			break
		}
		for i < len(win) && dinByte[win[i]] == dinSpace {
			i++
		}
		var addr uint64
		start = i
		for i < len(win) {
			v := dinByte[win[i]]
			if v > 15 {
				break
			}
			addr = addr<<4 | uint64(v)
			i++
		}
		if i == len(win) {
			past = true
			break
		}
		if digits := i - start; digits == 0 || digits > 16 || Addr(addr) > MaxAddr {
			break
		}
		switch dinByte[win[i]] {
		case dinEOL:
		case dinSpace: // trailing fields
			end := bytes.IndexByte(win[i:], '\n')
			if end < 0 {
				past = true
				break loop
			}
			i += end
		default:
			break loop
		}
		dst[n] = Access{Addr: Addr(addr), Kind: dinKinds[label]}
		n++
		pos, lines = i+1, lines+1
	}
	_, _ = dr.br.Discard(pos)
	dr.lineNo += lines
	dr.pending += uint64(n)
	if dr.pending >= telFlushEvery {
		dr.publish()
	}
	return n, past
}

// Next implements Source. It serves records from a small chunk the scan
// loop fills ahead of it.
func (dr *DineroReader) Next() (Access, bool) {
	if len(dr.ahead) == 0 {
		dr.ahead = dr.aheadBuf[:dr.NextChunk(dr.aheadBuf[:])]
		if len(dr.ahead) == 0 {
			return Access{}, false
		}
	}
	a := dr.ahead[0]
	dr.ahead = dr.ahead[1:]
	return a, true
}

// NextChunk implements ChunkSource: it fills dst through the scan loop,
// refilling the window when a line runs past it, and sends each line the
// scan cannot take down the exact path.
func (dr *DineroReader) NextChunk(dst []Access) int {
	n := copy(dst, dr.ahead)
	dr.ahead = dr.ahead[n:]
	for n < len(dst) && dr.err == nil && !dr.done {
		m, past := dr.scan(dst[n:])
		n += m
		switch {
		case n == len(dst):
		case past && dr.readErr == nil && dr.br.Buffered() < dr.br.Size():
			// Refill the window, and scan the line again. A read error
			// waits until the whole lines read before it are decoded.
			_, dr.readErr = dr.br.Peek(dr.br.Size())
		case dr.readErr != nil && dr.readErr != io.EOF && !dr.lineBuffered():
			dr.fail(fmt.Errorf("memtrace: reading din trace: %w", dr.readErr))
		default:
			if a, ok := dr.exactLine(); ok {
				dst[n] = a
				n++
			}
		}
	}
	return n
}

// lineBuffered reports whether the window holds a whole line.
func (dr *DineroReader) lineBuffered() bool {
	win, _ := dr.br.Peek(dr.br.Buffered()) // cannot fail, as in scan
	return bytes.IndexByte(win, '\n') >= 0
}

// exactLine decodes the next line on its own: it reads the line with
// readLine and classifies it with dinLineFault. It returns a record when
// the line holds one. Otherwise the line was blank, or skipped in lenient
// mode, or the stream ended or failed.
func (dr *DineroReader) exactLine() (Access, bool) {
	line, tooLong, eof, err := dr.readLine()
	if err != nil {
		dr.fail(fmt.Errorf("memtrace: reading din trace: %w", err))
		return Access{}, false
	}
	if eof {
		dr.done = true
		dr.publish()
		return Access{}, false
	}
	dr.lineNo++
	if tooLong {
		detail := fmt.Sprintf("memtrace: din line %d: line exceeds %d bytes", dr.lineNo, maxDinLine)
		dr.malformed("line-too-long", detail, errors.New(detail))
		return Access{}, false
	}
	trimmed := strings.TrimSpace(string(line))
	if trimmed == "" {
		return Access{}, false // blank under the full Unicode whitespace rules
	}
	reason, detail, a, ok := dinLineFault(dr.lineNo, trimmed)
	if !ok {
		dr.malformed(reason, detail, errors.New(detail))
		return Access{}, false
	}
	// Valid but unusual (Unicode whitespace, redundant leading zeros, …).
	dr.pending++
	return a, true
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
	line  [24]byte // formats one record: at most 19 bytes
	count uint64
	err   error
}

// NewDineroWriter starts writing din records to w.
func NewDineroWriter(w io.Writer) *DineroWriter {
	return &DineroWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Access implements Sink: it writes "<label> <hex>\n", the address in
// lower-case hex without leading zeros. Errors are sticky and reported
// by Close.
func (dw *DineroWriter) Access(a Access) {
	if dw.err != nil {
		return
	}
	line := append(dw.line[:0], byte('0'+dinLabel(a.Kind)), ' ')
	line = strconv.AppendUint(line, uint64(a.Addr), 16)
	line = append(line, '\n')
	if _, err := dw.bw.Write(line); err != nil {
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
