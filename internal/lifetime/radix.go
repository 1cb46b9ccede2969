package lifetime

import (
	"math"
	"math/bits"
)

// radixInsertion is the bucket size below which sortLifetimes finishes a
// bucket by insertion sort instead of another radix pass.
const radixInsertion = 32

// radixKey maps x to a key whose unsigned order is x's order for every
// value but NaN: a negative value has all its bits flipped, any other
// only its sign bit.
func radixKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortLifetimes sorts a ascending in place, as slices.Sort does for
// slices without NaN, by an American-flag MSD radix sort on the values'
// bit patterns. Digits run from the highest bit in which any two keys
// differ down to bit 0. Each bucket's digit is sized to the bucket, up to
// 8 bits, so a pass costs O(n) in both its values and its buckets;
// buckets under radixInsertion values are finished by insertion sort, so
// no input goes quadratic. It needs no scratch buffer.
func sortLifetimes(a []float64) {
	if len(a) < 2 {
		return
	}
	k0 := radixKey(a[0])
	var diff uint64
	for _, x := range a {
		diff |= radixKey(x) ^ k0
	}
	if diff == 0 {
		return
	}
	radixSort(a, uint(bits.Len64(diff)))
}

// radixSort sorts a, whose keys agree on every bit from top up, on a
// digit just below top, one bit narrower than len(a) and at most a byte
// wide, and then each bucket on the bits below that digit.
func radixSort(a []float64, top uint) {
	if len(a) < radixInsertion {
		insertionSort(a)
		return
	}
	shift := top - min(uint(bits.Len(uint(len(a))))-1, 8, top)
	var end [256]int
	buckets := radixPermute(a, shift, top, &end)
	if shift == 0 {
		return
	}
	start := 0
	for _, e := range end[:buckets] {
		if e-start > 1 {
			radixSort(a[start:e], shift)
		}
		start = e
	}
}

// radixPermute moves every value of a into the bucket of its key's bits
// [shift, top), in bucket order, leaves in end[d] the end of bucket d and
// returns the bucket count. Each displaced value is carried to the next
// free slot of its own bucket, so every value moves at most once.
func radixPermute(a []float64, shift, top uint, end *[256]int) int {
	buckets := 1 << (top - shift)
	mask := uint64(buckets - 1)
	for _, x := range a {
		end[radixKey(x)>>shift&mask]++
	}
	var next [256]int
	sum := 0
	for d, n := range end[:buckets] {
		next[d] = sum
		sum += n
		end[d] = sum
	}
	for d := range next[:buckets] {
		for i := next[d]; i < end[d]; i = next[d] {
			x := a[i]
			for {
				e := radixKey(x) >> shift & mask
				if int(e) == d {
					break
				}
				j := next[e]
				next[e]++
				x, a[j] = a[j], x
			}
			a[i] = x
			next[d]++
		}
	}
	return buckets
}

// insertionSort sorts a short slice in place.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && x < a[j-1]; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}
