package backend

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndCovering(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	r1 := newRing(nodes)
	r2 := newRing(nodes)
	counts := make([]int, len(nodes))
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("policy|m=R|e=%d|s=16|w=0", i)
		n := r1.node(key)
		if n != r2.node(key) {
			t.Fatalf("ring not deterministic for %q", key)
		}
		counts[n]++
	}
	for i, c := range counts {
		// With 64 virtual nodes each worker should own a meaningful
		// share; an unowned node means the ring is broken.
		if c < 300 {
			t.Fatalf("node %d owns only %d/3000 keys: %v", i, c, counts)
		}
	}
}

func TestRingRemovalRemapsMinority(t *testing.T) {
	full := newRing([]string{"a:1", "b:1", "c:1", "d:1"})
	reduced := newRing([]string{"a:1", "b:1", "c:1"})
	moved := 0
	const n = 4000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("mc|n=%d|seed=1", i)
		was, now := full.node(key), reduced.node(key)
		if was == 3 {
			continue // its node vanished; it must move
		}
		if was != now {
			moved++
		}
	}
	// Consistent hashing: keys on surviving nodes overwhelmingly stay
	// put (a modulo hash would remap ~75% of them).
	if moved > n/5 {
		t.Fatalf("%d/%d keys on surviving nodes remapped", moved, n)
	}
}

func TestRingEmpty(t *testing.T) {
	if n := newRing(nil).node("k"); n != -1 {
		t.Fatalf("empty ring returned node %d", n)
	}
}
