package dist

import "testing"

func TestSplitmix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := Splitmix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
	if Splitmix64(42) != Splitmix64(42) {
		t.Error("Splitmix64 not deterministic")
	}
}
