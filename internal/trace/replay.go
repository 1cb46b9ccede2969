package trace

import (
	"errors"
	"fmt"
	"io"
)

// Replayer serves per-core access streams from a recorded trace file, the
// counterpart of Writer. The file is a single merged stream; the replayer
// demultiplexes it with per-core look-ahead queues and rewinds at end of
// file, so a finite capture drives an arbitrarily long simulation
// (standard trace-loop methodology).
type Replayer struct {
	src    io.ReadSeeker
	reader *Reader
	name   string
	cores  int
	queues [][]Record
	loops  uint64
}

// NewReplayer parses the header and prepares per-core queues.
func NewReplayer(src io.ReadSeeker) (*Replayer, error) {
	reader, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	if reader.Cores() < 1 {
		return nil, fmt.Errorf("trace: replayer needs at least one core")
	}
	return &Replayer{
		src:    src,
		reader: reader,
		name:   reader.BenchmarkName(),
		cores:  reader.Cores(),
		queues: make([][]Record, reader.Cores()),
	}, nil
}

// BenchmarkName returns the recorded workload name.
func (rp *Replayer) BenchmarkName() string { return rp.name }

// Cores returns the recorded core count.
func (rp *Replayer) Cores() int { return rp.cores }

// Loops reports how many times the trace wrapped around.
func (rp *Replayer) Loops() uint64 { return rp.loops }

// Next returns the next record for the given core, reading ahead through
// other cores' records as needed and rewinding the file at EOF.
func (rp *Replayer) Next(core int) (Record, error) {
	if core < 0 || core >= rp.cores {
		return Record{}, fmt.Errorf("trace: core %d out of range 0..%d", core, rp.cores-1)
	}
	if q := rp.queues[core]; len(q) > 0 {
		rec := q[0]
		rp.queues[core] = q[1:]
		return rec, nil
	}
	rewinds := 0
	for {
		rec, err := rp.reader.Read()
		if errors.Is(err, io.EOF) {
			// A second rewind within one Next call means a full pass
			// found nothing for this core: the capture lacks it.
			rewinds++
			if rewinds > 1 {
				return Record{}, fmt.Errorf("trace: no records for core %d in capture", core)
			}
			if err := rp.rewind(); err != nil {
				return Record{}, err
			}
			continue
		}
		if err != nil {
			return Record{}, err
		}
		if int(rec.Core) == core {
			return rec, nil
		}
		if int(rec.Core) < rp.cores {
			rp.queues[rec.Core] = append(rp.queues[rec.Core], rec)
		}
		// Records for out-of-range cores are dropped (truncated captures).
	}
}

// rewind restarts the stream after EOF.
func (rp *Replayer) rewind() error {
	rp.loops++
	if _, err := rp.src.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("trace: rewind: %w", err)
	}
	reader, err := NewReader(rp.src)
	if err != nil {
		return err
	}
	rp.reader = reader
	return nil
}
