package linetable

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	tab := New(0)
	if tab.Len() != 0 {
		t.Fatalf("empty table Len = %d", tab.Len())
	}
	if _, ok := tab.Get(42); ok {
		t.Fatal("Get on empty table reported a hit")
	}
	tab.Put(42, -7)
	if v, ok := tab.Get(42); !ok || v != -7 {
		t.Fatalf("Get(42) = %d,%v want -7,true", v, ok)
	}
	tab.Put(42, 9)
	if v, _ := tab.Get(42); v != 9 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", tab.Len())
	}
}

// TestZeroKey: line address 0 is valid and must round-trip even though
// the backing array uses 0 as its empty marker.
func TestZeroKey(t *testing.T) {
	tab := New(4)
	if _, ok := tab.Get(0); ok {
		t.Fatal("zero key present in empty table")
	}
	tab.Put(0, -1<<60)
	if v, ok := tab.Get(0); !ok || v != -1<<60 {
		t.Fatalf("zero key Get = %d,%v", v, ok)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len with zero key = %d", tab.Len())
	}
	tab.Put(0, 5)
	if v, _ := tab.Get(0); v != 5 {
		t.Fatal("zero key overwrite lost")
	}
}

// TestGrowth inserts far past the initial capacity and checks every
// entry survives the rehashes.
func TestGrowth(t *testing.T) {
	tab := New(0)
	const n = 50_000
	for i := uint64(0); i < n; i++ {
		tab.Put(i*0x9e3779b97f4a7c15+1, int64(i))
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d want %d", tab.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tab.Get(i*0x9e3779b97f4a7c15 + 1); !ok || v != int64(i) {
			t.Fatalf("entry %d lost across growth: %d,%v", i, v, ok)
		}
	}
}

// TestAgainstMapOracle drives the table and a Go map with the same
// random operation stream, including dense keys (sequential line
// addresses), and requires identical observable behavior.
func TestAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New(16)
	oracle := map[uint64]int64{}
	for op := 0; op < 200_000; op++ {
		var key uint64
		switch rng.Intn(3) {
		case 0: // dense: sequential addresses
			key = uint64(rng.Intn(5000))
		case 1: // sparse
			key = rng.Uint64()
		default: // clustered: near a hot base
			key = 1<<40 + uint64(rng.Intn(64))
		}
		if rng.Intn(2) == 0 {
			v := int64(rng.Uint64())
			tab.Put(key, v)
			oracle[key] = v
		} else {
			got, okGot := tab.Get(key)
			want, okWant := oracle[key]
			if okGot != okWant || (okGot && got != want) {
				t.Fatalf("op %d key %d: table %d,%v oracle %d,%v",
					op, key, got, okGot, want, okWant)
			}
		}
	}
	if tab.Len() != len(oracle) {
		t.Fatalf("Len = %d oracle %d", tab.Len(), len(oracle))
	}
	// Full cross-check both ways.
	for k, want := range oracle {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("key %d: table %d,%v want %d", k, got, ok, want)
		}
	}
	seen := 0
	tab.Range(func(k uint64, v int64) bool {
		if want, ok := oracle[k]; !ok || v != want {
			t.Fatalf("Range produced %d=%d, oracle %d,%v", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(oracle) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(oracle))
	}
}

func TestNewCapHint(t *testing.T) {
	tab := New(10_000)
	// Must hold capHint entries without growing: record the bucket count
	// and verify it is unchanged after 10k inserts.
	buckets := len(tab.keys)
	for i := uint64(1); i <= 10_000; i++ {
		tab.Put(i, int64(i))
	}
	if len(tab.keys) != buckets {
		t.Fatalf("table grew from %d to %d buckets despite capHint", buckets, len(tab.keys))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tab := New(8)
	for i := uint64(0); i < 10; i++ {
		tab.Put(i, int64(i)) // includes the zero key
	}
	calls := 0
	tab.Range(func(uint64, int64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("Range made %d calls after early stop, want 3", calls)
	}
}

func BenchmarkGetHit(b *testing.B) {
	tab := New(1 << 16)
	for i := uint64(0); i < 1<<16; i++ {
		tab.Put(i, int64(i))
	}
	var sink int64
	for i := 0; i < b.N; i++ {
		v, _ := tab.Get(uint64(i) & (1<<16 - 1))
		sink += v
	}
	_ = sink
}

func BenchmarkGetMissPut(b *testing.B) {
	tab := New(1 << 16)
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		if _, ok := tab.Get(k); !ok {
			tab.Put(k, int64(i))
		}
	}
}

// TestReset: a reset table holds nothing, the zero key included, keeps
// its storage, and then behaves as a new table.
func TestReset(t *testing.T) {
	for _, entries := range []int{0, 10, 1500, 50_000} {
		tab := New(0)
		tab.Put(0, 3)
		for i := uint64(1); i <= uint64(entries); i++ {
			tab.Put(i*0x9e3779b97f4a7c15, int64(i))
		}
		slots := len(tab.keys)
		tab.Reset()
		if len(tab.keys) != slots || len(tab.vals) != slots {
			t.Fatalf("%d entries in %d slots: Reset left %d/%d slots",
				entries, slots, len(tab.keys), len(tab.vals))
		}
		if tab.Len() != 0 {
			t.Fatalf("%d entries: Len after Reset = %d", entries, tab.Len())
		}
		if _, ok := tab.Get(0); ok {
			t.Fatalf("%d entries: zero key survived Reset", entries)
		}
		for i := uint64(1); i <= uint64(entries); i++ {
			if _, ok := tab.Get(i * 0x9e3779b97f4a7c15); ok {
				t.Fatalf("%d entries: key %d survived Reset", entries, i)
			}
		}
		ref := New(0)
		for i := uint64(1); i <= 3000; i++ {
			k := i * 0x2545f4914f6cdd1d
			tab.Put(k, int64(i))
			ref.Put(k, int64(i))
		}
		if tab.Len() != ref.Len() {
			t.Fatalf("%d entries: refilled Len %d, new table %d", entries, tab.Len(), ref.Len())
		}
		for i := uint64(1); i <= 3000; i++ {
			k := i * 0x2545f4914f6cdd1d
			if v, ok := tab.Get(k); !ok || v != int64(i) {
				t.Fatalf("%d entries: refilled Get(%d) = %d,%v", entries, k, v, ok)
			}
		}
	}
}
