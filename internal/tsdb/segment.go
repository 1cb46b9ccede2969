package tsdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// On-disk segment format. A segment is an append-only sequence of
// length-prefixed frames behind a magic header:
//
//	segment = magic frame*
//	magic   = "RDTS1\n"
//	frame   = u32le(len(payload)) u32le(crc32-IEEE(payload)) payload
//	payload = JSON {"t": unixMillis, "n": [names...], "v": [values...]}
//
// One frame holds one collector tick. Each frame is written with a
// single Write call, so a crash can only ever tear the final frame;
// openSegmentLog repairs that tail by truncating the file to its last
// valid frame boundary, exactly like the campaign journal repairs a
// torn JSONL line. Rotation fsyncs the finished segment (and the
// directory entry of its successor) before any new frame lands, so
// every segment but the active one is durable in full.
const (
	segmentMagic    = "RDTS1\n"
	frameHeaderSize = 8
	// maxFramePayload bounds one frame (a tick of a few hundred series
	// is ~10 KiB; 16 MiB means a corrupt length prefix cannot make the
	// reader allocate unbounded memory).
	maxFramePayload = 16 << 20
)

// framePayload is the JSON body of one frame. Parallel name/value
// arrays keep the encoding compact and the field order deterministic.
type framePayload struct {
	T int64     `json:"t"`
	N []string  `json:"n"`
	V []float64 `json:"v"`
}

// segmentLog owns the active segment file and rotation. Appends are
// serialized by mu so the Store is safe for concurrent use even though
// the Collector is its only production writer.
type segmentLog struct {
	dir         string
	rotateBytes int64
	maxSegments int

	mu   sync.Mutex
	f    *os.File
	path string
	size int64
	next int // index of the segment after the active one
}

// openSegmentLog replays every existing segment in dir through replay
// (oldest first), repairs the final segment's torn tail, and returns a
// log appending to it (or to a fresh segment when the last one is
// already past the rotation threshold).
func openSegmentLog(dir string, rotateBytes int64, maxSegments int,
	replay func(unixMS int64, samples []Sample)) (*segmentLog, error) {
	paths, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: list segments: %w", err)
	}
	l := &segmentLog{dir: dir, rotateBytes: rotateBytes, maxSegments: maxSegments}
	for i, path := range paths {
		final := i == len(paths)-1
		valid, err := replaySegment(path, final, replay)
		if err != nil {
			return nil, err
		}
		if !final {
			continue
		}
		idx, err := segmentIndex(path)
		if err != nil {
			return nil, err
		}
		l.next = idx + 1
		if valid < l.rotateBytes {
			// Reopen the tail segment for appending, truncating any torn
			// final frame first so the next frame starts clean.
			f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, fmt.Errorf("tsdb: reopen segment: %w", err)
			}
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("tsdb: repair segment %s: %w", path, err)
			}
			if _, err := f.Seek(valid, 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("tsdb: seek segment %s: %w", path, err)
			}
			l.f, l.path, l.size = f, path, valid
		}
	}
	if l.f == nil {
		if err := l.startSegment(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// segmentIndex parses the numeric index out of "<dir>/NNNNNNNN.seg".
func segmentIndex(path string) (int, error) {
	base := strings.TrimSuffix(filepath.Base(path), ".seg")
	idx, err := strconv.Atoi(base)
	if err != nil {
		return 0, fmt.Errorf("tsdb: segment name %s: %w", path, err)
	}
	return idx, nil
}

// replaySegment decodes one segment through replay and returns the
// byte length of its valid prefix. A torn or corrupt tail is tolerated
// only on the final segment (the only one a crash can tear — earlier
// segments were fsynced at rotation); anywhere else it is corruption.
func replaySegment(path string, final bool, replay func(int64, []Sample)) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("tsdb: read segment: %w", err)
	}
	return decodeSegment(data, path, final, replay)
}

// decodeSegment is replaySegment over the segment's bytes; path only
// names the segment in errors.
func decodeSegment(data []byte, path string, final bool, replay func(int64, []Sample)) (int64, error) {
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return 0, fmt.Errorf("tsdb: segment %s: bad magic", path)
	}
	valid := int64(len(segmentMagic))
	offset := len(segmentMagic)
	for offset < len(data) {
		payload, next, ok := decodeFrame(data, offset)
		if !ok {
			if final {
				break // torn tail from an interrupted append
			}
			return 0, fmt.Errorf("tsdb: segment %s: corrupt frame at byte %d", path, offset)
		}
		var fp framePayload
		if err := json.Unmarshal(payload, &fp); err != nil || len(fp.N) != len(fp.V) {
			if final {
				break
			}
			return 0, fmt.Errorf("tsdb: segment %s: corrupt payload at byte %d", path, offset)
		}
		if replay != nil {
			samples := make([]Sample, len(fp.N))
			for i := range fp.N {
				samples[i] = Sample{Name: fp.N[i], Value: fp.V[i]}
			}
			replay(fp.T, samples)
		}
		valid = int64(next)
		offset = next
	}
	return valid, nil
}

// decodeFrame reads the frame starting at offset; ok is false when the
// bytes do not form a whole, checksummed frame.
func decodeFrame(data []byte, offset int) (payload []byte, next int, ok bool) {
	if offset+frameHeaderSize > len(data) {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[offset:])
	sum := binary.LittleEndian.Uint32(data[offset+4:])
	if n == 0 || n > maxFramePayload || offset+frameHeaderSize+int(n) > len(data) {
		return nil, 0, false
	}
	payload = data[offset+frameHeaderSize : offset+frameHeaderSize+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, offset + frameHeaderSize + int(n), true
}

// startSegment creates the next segment file, writes its magic, syncs
// the file and directory entry, and prunes retention.
func (l *segmentLog) startSegment() error {
	path := filepath.Join(l.dir, fmt.Sprintf("%08d.seg", l.next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		f.Close()
		return fmt.Errorf("tsdb: write segment magic: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("tsdb: sync segment: %w", err)
	}
	syncDir(l.dir)
	l.f, l.path, l.size = f, path, int64(len(segmentMagic))
	l.next++
	return l.prune()
}

// syncDir fsyncs a directory entry, best-effort (mirrors the campaign
// journal: some filesystems reject directory syncs).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// prune deletes the oldest segments past the retention cap.
func (l *segmentLog) prune() error {
	paths, err := listSegments(l.dir)
	if err != nil {
		return fmt.Errorf("tsdb: prune: %w", err)
	}
	for len(paths) > l.maxSegments {
		if err := os.Remove(paths[0]); err != nil {
			return fmt.Errorf("tsdb: prune %s: %w", paths[0], err)
		}
		paths = paths[1:]
	}
	return nil
}

// append frames one tick. The frame goes out in a single Write call so
// a crash tears at most this frame; rotation syncs the finished segment
// before the next one opens.
func (l *segmentLog) append(unixMS int64, samples []Sample) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fp := framePayload{T: unixMS, N: make([]string, len(samples)), V: make([]float64, len(samples))}
	for i, s := range samples {
		fp.N[i] = s.Name
		fp.V[i] = s.Value
	}
	payload, err := json.Marshal(fp)
	if err != nil {
		return fmt.Errorf("tsdb: marshal frame: %w", err)
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("tsdb: append frame: %w", err)
	}
	l.size += int64(len(frame))
	if l.size >= l.rotateBytes {
		return l.rotate()
	}
	return nil
}

// rotate seals the active segment (fsync, close) and opens the next.
func (l *segmentLog) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("tsdb: sync on rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("tsdb: close on rotate: %w", err)
	}
	return l.startSegment()
}

func (l *segmentLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("tsdb: sync segment: %w", err)
	}
	return nil
}

func (l *segmentLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("tsdb: sync segment: %w", err)
	}
	return l.f.Close()
}
