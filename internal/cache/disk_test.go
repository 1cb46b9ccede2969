package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	val := []byte(`{"answer":42}` + "\n")
	d.Put("mc|n=5|seed=1", val)
	got, ok := d.Get("mc|n=5|seed=1")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("got %q, %v", got, ok)
	}
	if _, ok := d.Get("mc|n=5|seed=2"); ok {
		t.Fatal("hit for a key never stored")
	}
	if d.Len() != 1 {
		t.Fatalf("len=%d, want 1", d.Len())
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k1", []byte("v1"))
	d.Put("k2", []byte("v2"))
	d.Close()

	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 2 {
		t.Fatalf("reopened len=%d, want 2", d2.Len())
	}
	got, ok := d2.Get("k1")
	if !ok || string(got) != "v1" {
		t.Fatalf("reopened get k1 = %q, %v", got, ok)
	}
}

func TestDiskEvictsByBytes(t *testing.T) {
	dir := t.TempDir()
	// Each entry costs header(16) + key(2) + value(20) = 38 bytes.
	d, err := OpenDisk(dir, 3*38)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		d.Put(k, make([]byte, 20))
	}
	if d.Len() != 3 || d.Bytes() != 3*38 {
		t.Fatalf("len=%d bytes=%d, want 3/%d", d.Len(), d.Bytes(), 3*38)
	}
	if ev := d.Put("k4", make([]byte, 20)); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := d.Get("k1"); ok {
		t.Fatal("oldest entry survived")
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 3 {
		t.Fatalf("%d files on disk, want 3", len(files))
	}
}

func TestDiskOversizedValueNotStored(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k", make([]byte, 64))
	if d.Len() != 0 {
		t.Fatal("oversized value stored")
	}
}

func TestDiskSweepsTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crashed writer: a torn temp file next to a good entry.
	leftover := filepath.Join(dir, keyFile("k")+".tmp123")
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("temp leftover not swept at open")
	}
	if d.Len() != 0 {
		t.Fatalf("len=%d, want 0", d.Len())
	}
}

// TestDiskCorruptEntryIsAMiss: a file changed behind the tier's back
// (torn write, bit rot, an entry of the older RDC1 format) is never
// served; it is dropped from the index and removed.
func TestDiskCorruptEntryIsAMiss(t *testing.T) {
	const key = "k"
	val := []byte(`{"ratio":1.2345}`)
	cases := []struct {
		name    string
		corrupt func(entry []byte) []byte
	}{
		{"torn header", func([]byte) []byte { return []byte("RD") }},
		{"truncated value", func(e []byte) []byte { return e[:len(e)-6] }},
		{"flipped value byte", func(e []byte) []byte {
			e = append([]byte(nil), e...)
			e[len(e)-3] ^= 0x01 // '4' -> '5'
			return e
		}},
		{"trailing bytes", func(e []byte) []byte { return append(append([]byte(nil), e...), '0') }},
		{"RDC1 entry", func([]byte) []byte {
			old := []byte("RDC1\x01\x00\x00\x00" + key)
			return append(old, val...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			d.Put(key, val)
			path := filepath.Join(dir, keyFile(key))
			entry, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(entry), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key); ok {
				t.Fatalf("corrupt entry served as %q", got)
			}
			if d.Len() != 0 {
				t.Fatal("corrupt entry still indexed")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt file not removed")
			}
		})
	}
}

func TestDiskKeyMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("real-key", []byte("value"))
	// Plant a file under another key's digest name with the wrong stored
	// key — the header check must refuse to serve it.
	other := keyFile("victim-key")
	if err := os.Rename(filepath.Join(dir, keyFile("real-key")), filepath.Join(dir, other)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get("victim-key"); ok {
		t.Fatal("entry with mismatched stored key served")
	}
}

func TestDiskReopenEvictsOverBudget(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"k1", "k2", "k3"} {
		d.Put(k, make([]byte, 20))
		// Distinct mtimes so reopen ordering is deterministic even on
		// coarse filesystem timestamps.
		mt := time.Now().Add(time.Duration(i-3) * time.Second)
		os.Chtimes(filepath.Join(dir, keyFile(k)), mt, mt)
	}
	d.Close()
	d2, err := OpenDisk(dir, 2*38) // room for two 38-byte entries
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 2 {
		t.Fatalf("reopened len=%d, want 2", d2.Len())
	}
	if _, ok := d2.Get("k1"); ok {
		t.Fatal("oldest entry survived the shrunken budget")
	}
}
