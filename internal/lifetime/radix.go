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
// bit patterns. Digits are bytes, from the highest byte in which any two
// keys differ down to byte 0, and buckets under radixInsertion values are
// finished by insertion sort, so every bucket costs O(n) per digit and no
// input goes quadratic. It needs no scratch buffer.
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
	radixSort(a, uint(63-bits.LeadingZeros64(diff))&^7)
}

// radixSort sorts a, whose keys agree on every byte above the one at
// shift, on that byte and then each bucket on the bytes below it.
func radixSort(a []float64, shift uint) {
	if len(a) < radixInsertion {
		insertionSort(a)
		return
	}
	var end [256]int
	radixPermute(a, shift, &end)
	if shift == 0 {
		return
	}
	start := 0
	for _, e := range end {
		if e-start > 1 {
			radixSort(a[start:e], shift-8)
		}
		start = e
	}
}

// radixPermute moves every value of a into the bucket of its key's byte
// at shift, in bucket order, and leaves in end[d] the end of bucket d.
// Each displaced value is carried to the next free slot of its own
// bucket, so every value moves at most once.
func radixPermute(a []float64, shift uint, end *[256]int) {
	for _, x := range a {
		end[byte(radixKey(x)>>shift)]++
	}
	var next [256]int
	sum := 0
	for d, n := range end {
		next[d] = sum
		sum += n
		end[d] = sum
	}
	for d := range next {
		for i := next[d]; i < end[d]; i = next[d] {
			x := a[i]
			for {
				e := byte(radixKey(x) >> shift)
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
