package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is a size-bounded on-disk cache tier, content-addressed by the
// canonical spec key: each entry is one file named by the key's SHA-256,
// holding a small header followed by the key and the value bytes. The
// stored key means a hash collision or stale file can never answer the
// wrong spec; the header's value length and CRC-32 mean a truncated or
// bit-rotten value is never served. Writes are crash-safe: the entry is
// assembled in a temp file in the same directory and renamed into place,
// so a crash leaves either the old entry, the new entry, or a *.tmp
// leftover that the next Open sweeps — never a torn file under the
// content-addressed name.
//
// The byte budget is enforced by an in-memory LRU index over file
// costs, rebuilt on Open from the directory itself (mtime order), so a
// restarted server reuses the previous process's tier.
type Disk struct {
	dir      string
	capacity int64

	mu    sync.Mutex
	size  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type diskEntry struct {
	name string // file base name (hex digest)
	cost int64  // file size in bytes
}

// An entry file is, in order:
//
//	"RDC2"              4-byte magic
//	key length          uint32, little-endian
//	value length        uint32, little-endian
//	CRC-32 of the value uint32 (IEEE), little-endian
//	key bytes
//	value bytes
//
// and nothing after the value. The older "RDC1" entries (magic, key
// length, key, then whatever bytes followed as the value) carry no
// length or checksum; Get treats them as misses and removes them.
const (
	diskMagic   = "RDC2"
	entryHeader = len(diskMagic) + 12
)

// OpenDisk opens (creating if needed) a disk tier rooted at dir with the
// given byte budget. Leftover temp files from a crashed writer are
// removed; existing entries are indexed oldest-first so eviction order
// survives restarts. If the directory's contents exceed the budget, the
// oldest entries are evicted immediately.
func OpenDisk(dir string, capacity int64) (*Disk, error) {
	if capacity < 0 {
		capacity = 0
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk tier %s: %w", dir, err)
	}
	d := &Disk{
		dir:      dir,
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: disk tier %s: %w", dir, err)
	}
	type found struct {
		diskEntry
		mtime int64
	}
	var scan []found
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if strings.Contains(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // crashed writer's leftover
			continue
		}
		if !isHexDigest(name) {
			continue // not ours; leave it alone
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		scan = append(scan, found{diskEntry{name: name, cost: info.Size()}, info.ModTime().UnixNano()})
	}
	sort.Slice(scan, func(i, j int) bool { return scan[i].mtime < scan[j].mtime })
	for _, f := range scan {
		ent := f.diskEntry
		d.items[ent.name] = d.ll.PushFront(&ent)
		d.size += ent.cost
	}
	d.mu.Lock()
	d.evictLocked()
	d.mu.Unlock()
	return d, nil
}

func isHexDigest(name string) bool {
	if len(name) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

func keyFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Name implements Tier.
func (d *Disk) Name() string { return "disk" }

// Get reads the entry for key, verifying the stored key, the value's
// length and its checksum. A missing, torn, bit-rotten, old-format or
// mismatched file is treated as a miss and dropped from the tier.
func (d *Disk) Get(key string) ([]byte, bool) {
	name := keyFile(key)
	d.mu.Lock()
	el, ok := d.items[name]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	d.ll.MoveToFront(el)
	d.mu.Unlock()

	val, err := readEntry(filepath.Join(d.dir, name), key)
	if err != nil {
		d.mu.Lock()
		if el, ok := d.items[name]; ok {
			d.dropLocked(el)
		}
		d.mu.Unlock()
		os.Remove(filepath.Join(d.dir, name))
		return nil, false
	}
	return val, true
}

func readEntry(path, key string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	val, err := decodeEntry(data, key)
	if err != nil {
		return nil, fmt.Errorf("cache: %s: %w", path, err)
	}
	return val, nil
}

// decodeEntry returns the value of an entry file stored for key, or an
// error unless data is exactly encodeEntry(key, value) for some value.
func decodeEntry(data []byte, key string) ([]byte, error) {
	if len(data) < entryHeader || string(data[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("bad header")
	}
	klen := uint64(binary.LittleEndian.Uint32(data[4:8]))
	vlen := uint64(binary.LittleEndian.Uint32(data[8:12]))
	sum := binary.LittleEndian.Uint32(data[12:16])
	if uint64(len(data)) != uint64(entryHeader)+klen+vlen {
		return nil, fmt.Errorf("entry is %d bytes, header says %d", len(data), uint64(entryHeader)+klen+vlen)
	}
	if string(data[entryHeader:entryHeader+int(klen)]) != key {
		return nil, fmt.Errorf("key mismatch")
	}
	val := data[entryHeader+int(klen):]
	if crc32.ChecksumIEEE(val) != sum {
		return nil, fmt.Errorf("value checksum mismatch")
	}
	return val, nil
}

// encodeEntry lays out the entry file for key and val.
func encodeEntry(key string, val []byte) []byte {
	buf := make([]byte, entryHeader, entryHeader+len(key)+len(val))
	copy(buf, diskMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(val)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(val))
	buf = append(buf, key...)
	return append(buf, val...)
}

// Put stores val under key via temp-file + rename, evicting
// least-recently-used entries until the byte budget holds. A value whose
// on-disk cost exceeds the whole budget is not stored.
func (d *Disk) Put(key string, val []byte) (evicted int) {
	name := keyFile(key)
	cost := int64(entryHeader+len(key)) + int64(len(val))
	if cost > d.capacity || uint64(len(key)) > math.MaxUint32 || uint64(len(val)) > math.MaxUint32 {
		return 0
	}
	path := filepath.Join(d.dir, name)
	if err := writeEntry(d.dir, path, key, val); err != nil {
		return 0 // a failed write leaves the tier as it was
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.items[name]; ok {
		ent := el.Value.(*diskEntry)
		d.size += cost - ent.cost
		ent.cost = cost
		d.ll.MoveToFront(el)
	} else {
		d.items[name] = d.ll.PushFront(&diskEntry{name: name, cost: cost})
		d.size += cost
	}
	return d.evictLocked()
}

func writeEntry(dir, path, key string, val []byte) error {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(encodeEntry(key, val)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// evictLocked removes LRU entries (and their files) until the budget
// holds. Caller holds d.mu.
func (d *Disk) evictLocked() (evicted int) {
	for d.size > d.capacity {
		back := d.ll.Back()
		if back == nil {
			break
		}
		d.dropLocked(back)
		os.Remove(filepath.Join(d.dir, back.Value.(*diskEntry).name))
		evicted++
	}
	return evicted
}

// dropLocked removes an entry from the index only. Caller holds d.mu.
func (d *Disk) dropLocked(el *list.Element) {
	ent := el.Value.(*diskEntry)
	d.ll.Remove(el)
	delete(d.items, ent.name)
	d.size -= ent.cost
}

// Len returns the number of indexed entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ll.Len()
}

// Bytes returns the accounted on-disk size of the tier.
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Close implements Tier. Entries stay on disk for the next Open.
func (d *Disk) Close() error { return nil }
