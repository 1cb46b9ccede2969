package tsdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRingWrapAndQuery(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.push(Point{UnixMS: int64(i * 100), Value: float64(i)})
	}
	if r.n != 4 {
		t.Fatalf("ring holds %d, want 4", r.n)
	}
	got := r.since(0)
	if len(got) != 4 || got[0].Value != 6 || got[3].Value != 9 {
		t.Fatalf("since(0) = %+v", got)
	}
	if got := r.since(801); len(got) != 1 || got[0].Value != 9 {
		t.Fatalf("since(801) = %+v", got)
	}
	if got := r.since(5000); got != nil {
		t.Fatalf("since(5000) = %+v, want nil", got)
	}
	if p, ok := r.latest(); !ok || p.Value != 9 {
		t.Fatalf("latest = %+v, %v", p, ok)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := open("", 8, segmentBytes, maxSegments)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Append(int64(1000*i), []Sample{
			{Name: "a", Value: float64(i)},
			{Name: "b", Value: float64(-i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Query("a", 0); len(got) != 3 || got[2].Value != 2 {
		t.Fatalf("query a = %+v", got)
	}
	if got := s.Query("a", 1500); len(got) != 1 {
		t.Fatalf("query a since 1500 = %+v", got)
	}
	if names := s.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if s.SeriesCount() != 2 {
		t.Fatalf("series count = %d", s.SeriesCount())
	}
}

func TestNilStoreAndCollectorAreInert(t *testing.T) {
	var s *Store
	if err := s.Append(1, []Sample{{Name: "x", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.Query("x", 0) != nil || s.Names() != nil || s.SeriesCount() != 0 {
		t.Fatal("nil store must answer empty")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var c *Collector
	c.Start()
	c.Poll()
	c.Stop()
	ch, cancel := c.Subscribe()
	if _, open := <-ch; open {
		t.Fatal("nil collector subscription must be closed")
	}
	cancel()
}

// TestStoreRestartReservesHistory is the acceptance check: a store
// reopened on an existing segment directory answers range queries for
// points appended before the restart.
func TestStoreRestartReservesHistory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Append(int64(i*1000), []Sample{
			{Name: "server.http.requests", Value: float64(i)},
			{Name: "server.pool.depth", Value: float64(i % 5)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Query("server.http.requests", 0)
	if len(got) != 50 {
		t.Fatalf("reopened store has %d points, want 50", len(got))
	}
	for i, p := range got {
		if p.UnixMS != int64(i*1000) || p.Value != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	// And the reopened store keeps appending into the same history.
	if err := re.Append(50_000, []Sample{{Name: "server.http.requests", Value: 50}}); err != nil {
		t.Fatal(err)
	}
	if got := re.Query("server.http.requests", 0); len(got) != 51 {
		t.Fatalf("post-restart append: %d points, want 51", len(got))
	}
}

// TestSegmentRotationAndRetention drives enough frames through a tiny
// rotation threshold to force several rotations and the retention cap.
func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, seriesPoints, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Append(int64(i), []Sample{{Name: "x", Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Fatalf("retention kept %d segments, cap 3: %v", len(segs), segs)
	}
	// Reopen: only the retained tail of history survives, newest intact.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Query("x", 0)
	if len(got) == 0 || got[len(got)-1].Value != 199 {
		t.Fatalf("retained history ends at %+v", got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i].UnixMS <= got[i-1].UnixMS {
			t.Fatalf("history out of order at %d: %+v", i, got[i-1:i+1])
		}
	}
}

// TestSegmentTornTailRepair truncates the final segment mid-frame and
// verifies Open drops exactly the torn frame, then appends cleanly.
func TestSegmentTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(int64(i), []Sample{{Name: "x", Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: drop the last 3 bytes, mid-frame.
	if err := os.WriteFile(segs[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	got := re.Query("x", 0)
	if len(got) != 9 {
		t.Fatalf("torn tail left %d points, want 9", len(got))
	}
	// Appending after repair lands on a clean frame boundary.
	if err := re.Append(100, []Sample{{Name: "x", Value: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	got = final.Query("x", 0)
	if len(got) != 10 || got[9].Value != 100 {
		t.Fatalf("post-repair history: %+v", got)
	}
}

// TestSegmentCorruptionMidHistoryFails: torn tails are tolerated only
// where a crash can produce them — a mangled frame in a sealed (non
// final) segment is corruption and must refuse to open.
func TestSegmentCorruptionMidHistoryFails(t *testing.T) {
	dir := t.TempDir()
	s, err := open(dir, seriesPoints, 256, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Append(int64(i), []Sample{{Name: "x", Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // flip a payload byte: crc must catch it
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("open accepted a corrupt sealed segment")
	}
}

func TestSegmentBadMagicFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "00000000.seg"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want bad magic", err)
	}
}

func TestStoreConcurrentAppendQuery(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", g)
			for i := 0; i < 200; i++ {
				s.Append(int64(i), []Sample{{Name: name, Value: float64(i)}})
				s.Query(name, 0)
				s.Names()
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if got := s.Query(fmt.Sprintf("s%d", g), 0); len(got) != 200 {
			t.Fatalf("series s%d has %d points", g, len(got))
		}
	}
}

func TestFrameValuesRoundTripFloats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, 1, -1, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 12345.6789}
	for i, v := range vals {
		if err := s.Append(int64(i), []Sample{{Name: "f", Value: v}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Query("f", 0)
	if len(got) != len(vals) {
		t.Fatalf("%d points, want %d", len(got), len(vals))
	}
	for i, p := range got {
		if p.Value != vals[i] {
			t.Fatalf("value %d: %v != %v", i, p.Value, vals[i])
		}
	}
}
