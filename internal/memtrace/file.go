package memtrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format ("JTR1"):
//
//	offset  size  field
//	0       4     magic "JTR1"
//	4       4     reserved (zero)
//	8       8     record count, little-endian
//	16      8*n   packed records (kind in top 2 bits, addr in low 62),
//	              little-endian
//
// The format is deliberately simple and fixed-width so that external tools
// can generate or inspect traces easily.

var fileMagic = [4]byte{'J', 'T', 'R', '1'}

// ErrBadFormat is returned when a trace file does not carry the expected
// magic number or is structurally truncated.
var ErrBadFormat = errors.New("memtrace: bad trace file format")

// WriteTo writes the trace to w in the binary trace format. It returns the
// number of bytes written.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64

	var header [16]byte
	copy(header[0:4], fileMagic[:])
	binary.LittleEndian.PutUint64(header[8:16], uint64(len(t.recs)))
	k, err := bw.Write(header[:])
	n += int64(k)
	if err != nil {
		return n, err
	}

	var buf [8]byte
	for _, r := range t.recs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		k, err := bw.Write(buf[:])
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Reader is a streaming Decoder over the binary trace format. It decodes
// records in buffered chunks, so replay memory stays O(1) in trace length
// — multi-gigabyte trace files never need to fit in memory. Check Err
// after Next reports false: a clean end of trace leaves it nil.
type Reader struct {
	br    *bufio.Reader
	buf   []byte // undecoded tail of the current chunk
	chunk [8 << 10]byte
	read  uint64 // records delivered or dropped so far
	count uint64 // records the header promised
	decodeState
}

// NewReader parses the header and returns a streaming reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)

	var header [16]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("memtrace: reading header: %w", err)
	}
	if [4]byte(header[0:4]) != fileMagic {
		return nil, ErrBadFormat
	}
	count := binary.LittleEndian.Uint64(header[8:16])
	const maxReasonable = 1 << 40 // 1 T records ≈ 8 TB; reject clearly corrupt counts
	if count > maxReasonable {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrBadFormat, count)
	}
	return &Reader{br: br, count: count}, nil
}

// Count returns the record count promised by the file header.
func (r *Reader) Count() uint64 { return r.count }

// Next implements Source. It returns ok == false at the end of the trace
// or on a decoding error (reported by Err).
func (r *Reader) Next() (Access, bool) {
	for {
		if r.err != nil || r.done || r.read == r.count {
			r.publish()
			return Access{}, false
		}
		if len(r.buf) < 8 {
			// Chunk boundary: publish the buffered decode counter so a
			// concurrent scrape lags by at most one chunk.
			r.publish()
			want := (r.count - r.read) * 8
			if want > uint64(len(r.chunk)) {
				want = uint64(len(r.chunk))
			}
			// Carry the partial record (if any) to the front of the chunk.
			n := copy(r.chunk[:], r.buf)
			m, err := io.ReadAtLeast(r.br, r.chunk[n:want], 8-n)
			if err != nil {
				// A truncated tail is the classic interrupted-copy
				// fault: lenient mode salvages everything before it and
				// ends the stream cleanly, noting the loss.
				r.done = true
				r.malformed("truncated-tail",
					fmt.Sprintf("trace truncated at record %d of %d", r.read, r.count),
					fmt.Errorf("%w: truncated at record %d: %v", ErrBadFormat, r.read, err))
				return Access{}, false
			}
			r.buf = r.chunk[:n+m]
		}
		rec := record(binary.LittleEndian.Uint64(r.buf[:8]))
		r.buf = r.buf[8:]
		a := rec.unpack()
		r.read++
		if a.Kind >= numKinds {
			detail := fmt.Sprintf("record %d has invalid kind %d", r.read-1, a.Kind)
			if r.malformed("invalid-kind", detail, fmt.Errorf("%w: %s", ErrBadFormat, detail)) {
				continue
			}
			return Access{}, false
		}
		r.pending++
		return a, true
	}
}

// NextChunk implements ChunkSource: it unpacks the whole records of the
// buffered chunk straight into dst, and calls Next for a refill or a
// record with an invalid kind.
func (r *Reader) NextChunk(dst []Access) int {
	n := 0
	for n < len(dst) {
		if r.err == nil && !r.done {
			// The chunk never holds more than the header's remaining
			// records, so this loop cannot read past the count.
			k := 0
			for n < len(dst) && k+8 <= len(r.buf) {
				a := record(binary.LittleEndian.Uint64(r.buf[k:])).unpack()
				if a.Kind >= numKinds {
					break
				}
				dst[n] = a
				n++
				k += 8
			}
			r.buf = r.buf[k:]
			r.read += uint64(k / 8)
			r.pending += uint64(k / 8)
			if n == len(dst) {
				break
			}
		}
		a, ok := r.Next()
		if !ok {
			break
		}
		dst[n] = a
		n++
	}
	return n
}

// ReadTrace reads a complete trace in the binary trace format from r,
// materializing it in memory. For large files prefer NewReader, which
// streams.
func ReadTrace(r io.Reader) (*Trace, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	if sr.Count() > 1<<33 { // 8 G records ≈ 64 GB in memory
		return nil, fmt.Errorf("%w: record count %d too large to materialize (use NewReader)",
			ErrBadFormat, sr.Count())
	}
	// The header count is untrusted input: preallocate from it only up to
	// a modest bound, so a corrupt header cannot force a giant allocation
	// before the (truncated) body is even read.
	prealloc := sr.Count()
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	t := NewTrace(int(prealloc))
	Drain(sr, t)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// StreamWriter incrementally writes a trace file without holding it in
// memory. Close must be called to finalize the record count, so the
// underlying writer must be an io.WriteSeeker.
type StreamWriter struct {
	ws    io.WriteSeeker
	bw    *bufio.Writer
	count uint64
	err   error
}

// NewStreamWriter starts writing a trace file to ws. The header is written
// immediately with a zero count and patched on Close.
func NewStreamWriter(ws io.WriteSeeker) (*StreamWriter, error) {
	sw := &StreamWriter{ws: ws, bw: bufio.NewWriterSize(ws, 1<<16)}
	var header [16]byte
	copy(header[0:4], fileMagic[:])
	if _, err := sw.bw.Write(header[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// Access appends one access record. Errors are sticky and reported by Close.
func (sw *StreamWriter) Access(a Access) {
	if sw.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(pack(a)))
	if _, err := sw.bw.Write(buf[:]); err != nil {
		sw.err = err
		return
	}
	sw.count++
}

// Count returns the number of records written so far.
func (sw *StreamWriter) Count() uint64 { return sw.count }

// Close flushes buffered records and patches the record count into the
// header. It returns the first error encountered during writing.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	if _, err := sw.ws.Seek(8, io.SeekStart); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], sw.count)
	if _, err := sw.ws.Write(buf[:]); err != nil {
		return err
	}
	_, err := sw.ws.Seek(0, io.SeekEnd)
	return err
}

var _ Sink = (*StreamWriter)(nil)
