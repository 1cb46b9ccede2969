// Package ingest parses external memory-trace formats into the native
// trace.Record stream, closing the realism gap between the paper's real
// SPEC CPU2006 Pin traces and this reproduction's synthetic generators.
//
// Two external formats are supported, both with transparent gzip framing
// (sniffed from the 0x1f 0x8b magic, so "file.champsim.gz" needs no flag):
//
//   - ChampSim-style binary: the 64-byte little-endian input_instr record
//     ChampSim's tracer emits (ip, branch flags, register ids, 2
//     destination-memory and 4 source-memory addresses). Source-memory
//     slots become demand reads, destination-memory slots write-backs;
//     instructions without memory operands accumulate into the next
//     record's Gap.
//
//   - Pin-style text: one access per line, either "R 0x7f03c1a0" /
//     "W 0x7f03c1a0" or the pinatrace.so form "0x401b32: R 0x7f03c1a0".
//     Blank lines and '#' comments are ignored; anything else is a
//     malformed-input error naming the line.
//
// Native trace files (`readduo-sim trace` output) pass through unchanged,
// so one ingest path serves every workload source.
//
// Parsed accesses are normalized for the simulator's multiprogrammed
// setup: with Cores=N, each access is replicated across N per-core
// streams with disjoint address-space slices (base core<<40, the same
// convention trace.Generator uses), modeling every core running one
// instance of the traced program — the paper's 4-core configuration.
//
// All parsers are strict (a truncated record or unparseable line is an
// ErrMalformed, not a silent skip) and bounded (fixed-size record
// buffers, capped line length), properties pinned by fuzz targets.
package ingest

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"

	"readduo/internal/trace"
)

// ErrMalformed reports unparseable ingest input.
var ErrMalformed = errors.New("ingest: malformed input")

// Format names a supported trace encoding.
type Format string

const (
	// FormatAuto sniffs the format: native magic, then text-vs-binary.
	FormatAuto Format = "auto"
	// FormatNative is the repo's own binary trace encoding (RDTR).
	FormatNative Format = "native"
	// FormatChampSim is the ChampSim tracer's 64-byte input_instr record.
	FormatChampSim Format = "champsim"
	// FormatPin is the Pin-style one-access-per-line text format.
	FormatPin Format = "pin"
)

// ParseFormat resolves a user-facing format name.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "", FormatAuto:
		return FormatAuto, nil
	case FormatNative, FormatChampSim, FormatPin:
		return Format(s), nil
	default:
		return "", fmt.Errorf("ingest: unknown format %q (want auto, native, champsim, or pin)", s)
	}
}

// Options tunes normalization of parsed accesses.
type Options struct {
	// Cores replicates the (single-threaded) external trace across this
	// many per-core streams with disjoint address slices. 0 defaults to 1.
	// Native input ignores Cores: its records already carry core ids.
	Cores int
	// Gap is the fixed inter-access instruction gap assumed for formats
	// that carry no instruction counts (Pin text). ChampSim input derives
	// gaps from the instruction stream itself; native input keeps its own.
	Gap uint32
	// MaxRecords caps how many normalized records Next will yield
	// (0 = unlimited) — a guard for adversarial or runaway inputs.
	MaxRecords uint64
}

func (o Options) cores() int {
	if o.Cores == 0 {
		return 1
	}
	return o.Cores
}

func (o Options) validate() error {
	if o.Cores < 0 || o.Cores > 255 {
		return fmt.Errorf("ingest: core count %d out of range 0..255", o.Cores)
	}
	return nil
}

// parser yields one parsed access per call: the line address, the
// direction, and the instruction gap since the previous access.
type parser interface {
	next() (line uint64, write bool, gap uint32, err error)
	// name labels the workload when the input format carries none.
	name() string
}

// Stream is a normalized record source over an external trace. It
// satisfies the same contract as trace.Reader: Next returns io.EOF at a
// clean end of input and wraps malformed input in ErrMalformed.
type Stream struct {
	p       parser
	opts    Options
	format  Format
	pending []trace.Record // per-core replicas not yet handed out
	yielded uint64

	// native passthrough (nil for external formats)
	native *trace.Reader
}

// Open wraps r in a format parser. The reader is sniffed for gzip framing
// first, then for the requested (or auto-detected) format.
func Open(r io.Reader, format Format, opts Options) (*Stream, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(r, 64<<10)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("%w: gzip framing: %v", ErrMalformed, err)
		}
		br = bufio.NewReaderSize(zr, 64<<10)
	}
	if format == FormatAuto || format == "" {
		f, err := detect(br)
		if err != nil {
			return nil, err
		}
		format = f
	}
	s := &Stream{opts: opts, format: format}
	switch format {
	case FormatNative:
		nr, err := trace.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("%w: native trace: %v", ErrMalformed, err)
		}
		s.native = nr
	case FormatChampSim:
		s.p = newChampSimParser(br)
	case FormatPin:
		s.p = newPinParser(br)
	default:
		return nil, fmt.Errorf("ingest: unknown format %q", format)
	}
	return s, nil
}

// detect sniffs the stream (post-gzip): the native magic wins, then a
// printable prefix selects the Pin text format, else ChampSim binary.
func detect(br *bufio.Reader) (Format, error) {
	prefix, err := br.Peek(512)
	if err != nil && !errors.Is(err, io.EOF) {
		return "", fmt.Errorf("%w: sniff: %v", ErrMalformed, err)
	}
	if len(prefix) == 0 {
		return "", fmt.Errorf("%w: empty input", ErrMalformed)
	}
	if len(prefix) >= 4 && string(prefix[:4]) == "RDTR" {
		return FormatNative, nil
	}
	for _, b := range prefix {
		if b == '\n' || b == '\r' || b == '\t' {
			continue
		}
		if b < 0x20 || b > 0x7e {
			return FormatChampSim, nil
		}
	}
	return FormatPin, nil
}

// Format reports the resolved input format.
func (s *Stream) Format() Format { return s.format }

// Name labels the ingested workload: the recorded name for native input,
// the format name otherwise.
func (s *Stream) Name() string {
	if s.native != nil {
		return s.native.BenchmarkName()
	}
	return s.p.name()
}

// Cores reports the normalized core count.
func (s *Stream) Cores() int {
	if s.native != nil {
		return s.native.Cores()
	}
	return s.opts.cores()
}

// Next returns the next normalized record, or io.EOF at a clean end of
// input. External-format accesses are replicated per core with disjoint
// address slices; native records pass through unchanged.
func (s *Stream) Next() (trace.Record, error) {
	if s.opts.MaxRecords > 0 && s.yielded >= s.opts.MaxRecords {
		return trace.Record{}, io.EOF
	}
	if s.native != nil {
		rec, err := s.native.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return trace.Record{}, io.EOF
			}
			return trace.Record{}, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		s.yielded++
		return rec, nil
	}
	if len(s.pending) == 0 {
		line, write, gap, err := s.p.next()
		if err != nil {
			return trace.Record{}, err
		}
		if s.opts.Gap != 0 && gap == 0 {
			gap = s.opts.Gap
		}
		n := s.opts.cores()
		if cap(s.pending) < n {
			s.pending = make([]trace.Record, 0, n)
		}
		const lineMask = (uint64(1) << 40) - 1
		for c := 0; c < n; c++ {
			s.pending = append(s.pending, trace.Record{
				Core:  uint8(c),
				Write: write,
				Line:  uint64(c)<<40 | line&lineMask,
				Gap:   gap,
			})
		}
	}
	rec := s.pending[0]
	s.pending = s.pending[1:]
	s.yielded++
	return rec, nil
}

// Convert streams an external trace into a native trace file: Open,
// drain, write. It returns the number of records written. name labels
// the output trace; empty defaults to the stream's own label.
func Convert(dst io.Writer, src io.Reader, format Format, name string, opts Options) (uint64, error) {
	s, err := Open(src, format, opts)
	if err != nil {
		return 0, err
	}
	if name == "" {
		name = s.Name()
	}
	w, err := trace.NewWriter(dst, name, s.Cores())
	if err != nil {
		return 0, err
	}
	for {
		rec, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return w.Count(), err
		}
		if err := w.Write(rec); err != nil {
			return w.Count(), err
		}
	}
	if err := w.Flush(); err != nil {
		return w.Count(), err
	}
	return w.Count(), nil
}
