package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"readduo/internal/sim"
	"readduo/internal/telemetry"
)

// journalVersion is bumped when the journal schema changes incompatibly.
const journalVersion = 1

// Header is the first line of a campaign journal: enough metadata to
// validate a resume and to make result files self-describing.
type Header struct {
	Version     int      `json:"version"`
	Fingerprint string   `json:"fingerprint"`
	CreatedUnix int64    `json:"created_unix"`
	Budget      uint64   `json:"budget"`
	Seeds       []int64  `json:"seeds"`
	Benchmarks  []string `json:"benchmarks"`
	Schemes     []string `json:"schemes"`
	Jobs        int      `json:"jobs"`
}

// Status classifies a finished job.
type Status string

// Job outcomes. Only StatusOK records count toward an aggregated matrix
// (validity gating: a crashed job never pollutes a published table).
const (
	StatusOK     Status = "ok"
	StatusFailed Status = "failed"
)

// Record is one journaled job completion. It is the campaign's only
// per-job record: key, worker, outcome and wall time live here and
// nowhere else.
type Record struct {
	Key       string      `json:"key"`
	Index     int         `json:"index"`
	Benchmark string      `json:"benchmark"`
	Scheme    string      `json:"scheme"`
	SeedIndex int         `json:"seed_index"`
	Seed      int64       `json:"seed"`
	Status    Status      `json:"status"`
	Error     string      `json:"error,omitempty"`
	WallMS    float64     `json:"wall_ms"`
	Worker    int         `json:"worker"`
	Result    *sim.Result `json:"result,omitempty"`
}

// TelemetrySummary is the counter snapshot a telemetry-enabled campaign
// stamps into its journal when it finishes. On resume the summaries of
// earlier runs are merged and handed back, so an interrupted campaign
// reports cumulative statistics across every run that contributed
// records.
type TelemetrySummary struct {
	// AtUnix is when the contributing run finished.
	AtUnix int64 `json:"at_unix"`
	// Jobs is the number of jobs that run executed (excluding resumed).
	Jobs int `json:"jobs"`
	// Counters holds the registry's counter values by full name.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Merge folds other into s (counter-wise addition; the latest finish
// time wins).
func (s *TelemetrySummary) Merge(other *TelemetrySummary) {
	if s == nil || other == nil {
		return
	}
	if other.AtUnix > s.AtUnix {
		s.AtUnix = other.AtUnix
	}
	s.Jobs += other.Jobs
	if s.Counters == nil {
		s.Counters = make(map[string]uint64, len(other.Counters))
	}
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
}

// SummaryFromSnapshot extracts the journal-worthy part of a registry
// snapshot (counters only; gauges and histograms are run-local).
func SummaryFromSnapshot(snap telemetry.Snapshot, jobs int, atUnix int64) *TelemetrySummary {
	counters := make(map[string]uint64, len(snap.Counters))
	for k, v := range snap.Counters {
		counters[k] = v
	}
	return &TelemetrySummary{AtUnix: atUnix, Jobs: jobs, Counters: counters}
}

// journalLine is the JSONL envelope: exactly one of the fields is set.
type journalLine struct {
	Header    *Header           `json:"header,omitempty"`
	Job       *Record           `json:"job,omitempty"`
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`
}

// Journal is an append-only JSONL campaign log. Append is safe for
// concurrent use; every record is written and flushed atomically so a
// killed process loses at most the line being written.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Create starts a fresh journal at path (truncating any previous file) and
// writes the header line. The header and the directory entry are synced
// immediately: a campaign that crashes right after starting still leaves
// a well-formed, resumable journal behind.
func Create(path string, h Header) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: create journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	if err := j.appendLine(journalLine{Header: &h}); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: sync journal header: %w", err)
	}
	syncDir(path)
	return j, nil
}

// syncDir fsyncs the directory containing path so a freshly created
// journal's directory entry is durable. Best-effort: some filesystems
// reject directory syncs, and the journal itself is already synced.
func syncDir(path string) {
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	defer dir.Close()
	_ = dir.Sync()
}

// Open resumes the journal at path: it validates the existing header
// against h, returns the already-completed records keyed by job key plus
// the merged telemetry summary of previous runs (nil when none was
// journaled), and reopens the file for appending. A torn final line —
// left by a killed campaign — is truncated away so subsequent appends
// start on a clean line boundary. A missing file degrades to Create.
func Open(path string, h Header) (*Journal, map[string]Record, *TelemetrySummary, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		j, cerr := Create(path, h)
		return j, map[string]Record{}, nil, cerr
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	gotHeader, records, prior, valid, derr := decodeAll(data)
	if derr != nil {
		return nil, nil, nil, fmt.Errorf("campaign: journal %s: %w", path, derr)
	}
	if gotHeader.Version != h.Version {
		return nil, nil, nil, fmt.Errorf("campaign: journal %s is version %d, want %d",
			path, gotHeader.Version, h.Version)
	}
	if gotHeader.Fingerprint != h.Fingerprint {
		return nil, nil, nil, fmt.Errorf("campaign: journal %s belongs to a different campaign (fingerprint %s, want %s)",
			path, gotHeader.Fingerprint, h.Fingerprint)
	}
	done := make(map[string]Record, len(records))
	for _, rec := range records {
		if rec.Status == StatusOK && rec.Result != nil {
			done[rec.Key] = rec
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: reopen journal: %w", err)
	}
	if valid < int64(len(data)) {
		// Drop the torn tail so the next append starts a fresh line.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("campaign: repair journal: %w", err)
		}
	}
	return &Journal{f: f, path: path}, done, prior, nil
}

// Append journals one job completion.
func (j *Journal) Append(rec Record) error {
	return j.appendLine(journalLine{Job: &rec})
}

// AppendTelemetry journals a run's telemetry summary.
func (j *Journal) AppendTelemetry(s *TelemetrySummary) error {
	if s == nil {
		return nil
	}
	return j.appendLine(journalLine{Telemetry: s})
}

// Sync flushes every appended record to stable storage. campaign.Run
// calls it when the job stream drains, so a crash immediately after a
// campaign completes cannot lose the final records (Close alone would
// only cover an orderly shutdown).
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: sync journal: %w", err)
	}
	return nil
}

func (j *Journal) appendLine(line journalLine) error {
	buf, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("campaign: marshal journal line: %w", err)
	}
	buf = append(buf, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	// One Write call per record keeps lines whole even under SIGKILL;
	// only the final, in-flight line can ever be truncated.
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("campaign: append journal: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Decode reads a journal stream. A truncated final line — the signature of
// a killed campaign — is tolerated and simply dropped; corruption anywhere
// else is an error.
func Decode(r io.Reader) (Header, []Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Header{}, nil, fmt.Errorf("read: %w", err)
	}
	h, records, _, _, derr := decodeAll(data)
	return h, records, derr
}

// decodeAll parses the journal bytes and additionally returns the merged
// telemetry summary of every stamped run (nil when none) and the length
// of the valid prefix: everything up to and including the last
// well-formed line. Open truncates the file to that length before
// resuming appends.
func decodeAll(data []byte) (Header, []Record, *TelemetrySummary, int64, error) {
	var (
		header  *Header
		records []Record
		summary *TelemetrySummary
		valid   int64
		lineNo  int
	)
	for offset := 0; offset < len(data); {
		nl := bytes.IndexByte(data[offset:], '\n')
		complete := nl >= 0
		var line []byte
		next := len(data)
		if complete {
			line = data[offset : offset+nl]
			next = offset + nl + 1
		} else {
			line = data[offset:]
		}
		lineNo++
		if len(bytes.TrimSpace(line)) == 0 {
			if complete {
				valid = int64(next)
			}
			offset = next
			continue
		}
		var jl journalLine
		parseErr := json.Unmarshal(line, &jl)
		if header == nil {
			if parseErr != nil || jl.Header == nil || !complete {
				return Header{}, nil, nil, 0, fmt.Errorf("missing journal header")
			}
			header = jl.Header
			valid = int64(next)
			offset = next
			continue
		}
		if parseErr != nil || (jl.Job == nil && jl.Telemetry == nil) || !complete {
			if next >= len(data) {
				break // torn final line from an interrupted write
			}
			return Header{}, nil, nil, 0, fmt.Errorf("corrupt journal line %d", lineNo)
		}
		if jl.Telemetry != nil {
			if summary == nil {
				summary = &TelemetrySummary{}
			}
			summary.Merge(jl.Telemetry)
		} else {
			records = append(records, *jl.Job)
		}
		valid = int64(next)
		offset = next
	}
	if header == nil {
		return Header{}, nil, nil, 0, fmt.Errorf("empty journal")
	}
	return *header, records, summary, valid, nil
}

// DecodeFile reads the journal at path.
func DecodeFile(path string) (Header, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	return Decode(f)
}
