// Package linetable provides the simulator's line-state store: a flat
// open-addressing hash table from physical line address (uint64) to a
// timestamp (int64). It exists because the engine consults and updates
// one entry per demand read, demand write, and scrub visit — the three
// hottest call sites of the whole simulation — and a general-purpose Go
// map pays for genericity (hash seeding, tophash groups, incremental
// growth machinery) that this fixed-shape workload never uses.
//
// Layout: two parallel power-of-two slices, keys and values, probed
// linearly from a dist.Splitmix64 hash of the key — the mixer the engine
// uses for line placement, avalanche-complete, so adversarial clustering
// of line addresses cannot degrade the probe sequence. Parallel flat storage
// keeps the probe sequence inside one cache line for the common
// cluster lengths, and the value array is only touched on a hit. The
// zero key (a valid line address) is stored out of line in a dedicated
// slot so the keys slice can use 0 as the empty marker.
//
// The table only grows (the engine never deletes line state), doubling
// at 3/4 load with a full rehash; entries are immutable 16-byte pairs,
// so a rehash is a tight copy loop. Lookups and updates are
// deterministic: iteration order is never exposed, so replacing the Go
// map with this table is bit-identical for fixed seeds.
package linetable

import "readduo/internal/dist"

// Table maps uint64 keys to int64 values. The zero Table is NOT ready
// for use; call New.
type Table struct {
	keys []uint64
	vals []int64
	mask uint64
	// n counts live entries excluding the zero key.
	n int
	// grow threshold: resize when n reaches it (3/4 of len(keys)).
	limit int

	zeroSet bool
	zeroVal int64
}

// New returns an empty table sized for at least capHint entries
// without growing. capHint <= 0 picks a small default.
func New(capHint int) *Table {
	size := 16
	for size*3/4 < capHint {
		size <<= 1
	}
	t := &Table{}
	t.init(size)
	return t
}

func (t *Table) init(size int) {
	t.keys = make([]uint64, size)
	t.vals = make([]int64, size)
	t.mask = uint64(size - 1)
	t.limit = size * 3 / 4
	t.n = 0
}

// Len returns the number of stored entries.
func (t *Table) Len() int {
	if t.zeroSet {
		return t.n + 1
	}
	return t.n
}

// Get returns the value stored for key, and whether one exists.
func (t *Table) Get(key uint64) (int64, bool) {
	if key == 0 {
		return t.zeroVal, t.zeroSet
	}
	i := dist.Splitmix64(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Put stores value under key, replacing any previous entry.
func (t *Table) Put(key uint64, value int64) {
	if key == 0 {
		t.zeroSet, t.zeroVal = true, value
		return
	}
	i := dist.Splitmix64(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			t.vals[i] = value
			return
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = value
			t.n++
			if t.n >= t.limit {
				t.grow()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the bucket array and rehashes every entry.
func (t *Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys) * 2)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := dist.Splitmix64(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
		t.n++
	}
}

// Range calls fn for every entry in unspecified order, stopping early
// if fn returns false. It is a diagnostic aid (tests, dumps); the
// engine's hot paths never iterate.
func (t *Table) Range(fn func(key uint64, value int64) bool) {
	if t.zeroSet && !fn(0, t.zeroVal) {
		return
	}
	for i, k := range t.keys {
		if k != 0 && !fn(k, t.vals[i]) {
			return
		}
	}
}
