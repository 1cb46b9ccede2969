package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format:
//
//	magic "RDTR" | version u16 | cores u8 | name len u8 | name bytes
//	then repeated 14-byte records:
//	core u8 | flags u8 (bit0 = write) | line u64 | gap u32
//
// all little-endian.

const (
	fileMagic   = "RDTR"
	fileVersion = 1
	recordSize  = 14
)

// ErrBadTraceFile reports a malformed trace stream.
var ErrBadTraceFile = errors.New("trace: malformed trace file")

// Writer streams records to a trace file.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter writes the header and returns a record writer.
func NewWriter(w io.Writer, benchName string, cores int) (*Writer, error) {
	if len(benchName) > 255 {
		return nil, fmt.Errorf("trace: benchmark name too long")
	}
	if cores < 1 || cores > 255 {
		return nil, fmt.Errorf("trace: core count %d out of range", cores)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	hdr := []byte{byte(fileVersion), byte(fileVersion >> 8), byte(cores), byte(len(benchName))}
	if _, err := bw.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	if _, err := bw.WriteString(benchName); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	var buf [recordSize]byte
	buf[0] = r.Core
	if r.Write {
		buf[1] = 1
	}
	binary.LittleEndian.PutUint64(buf[2:], r.Line)
	binary.LittleEndian.PutUint32(buf[10:], r.Gap)
	if _, err := w.w.Write(buf[:]); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	w.count++
	return nil
}

// Count returns how many records have been written.
func (w *Writer) Count() uint64 { return w.count }

// Flush completes the stream.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Reader streams records from a trace file.
type Reader struct {
	r         *bufio.Reader
	benchName string
	cores     int
	records   uint64
}

// NewReader parses the header. Gzip-compressed trace files are accepted
// transparently: the stream is sniffed for the gzip magic bytes and
// decompressed before header parsing, so `readduo-sim trace -gzip` output
// (and any externally compressed capture) reads like a plain trace.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("%w: gzip framing: %v", ErrBadTraceFile, err)
		}
		br = bufio.NewReader(zr)
	}
	head := make([]byte, 4+4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadTraceFile, err)
	}
	if string(head[:4]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTraceFile, head[:4])
	}
	version := binary.LittleEndian.Uint16(head[4:6])
	if version != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTraceFile, version)
	}
	cores := int(head[6])
	nameLen := int(head[7])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrBadTraceFile, err)
	}
	return &Reader{r: br, benchName: string(name), cores: cores}, nil
}

// BenchmarkName returns the trace's recorded benchmark name.
func (r *Reader) BenchmarkName() string { return r.benchName }

// Cores returns the recorded core count.
func (r *Reader) Cores() int { return r.cores }

// Read returns the next record, or io.EOF at a clean end of stream.
func (r *Reader) Read() (Record, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: record: %v", ErrBadTraceFile, err)
	}
	r.records++
	return Record{
		Core:  buf[0],
		Write: buf[1]&1 != 0,
		Line:  binary.LittleEndian.Uint64(buf[2:]),
		Gap:   binary.LittleEndian.Uint32(buf[10:]),
	}, nil
}

// Records returns how many records have been read so far.
func (r *Reader) Records() uint64 { return r.records }
