package keys

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// radixCutoff is the bucket size at and below which insertion sort
	// finishes the job instead of another counting pass.
	radixCutoff = 64
	// radixFanOut is the length from which the 256 top-level buckets are
	// sorted concurrently.
	radixFanOut = 1 << 16
)

// SortRadix sorts s ascending in place with an MSD radix sort: an
// American-flag permutation on 8-bit digits from the top byte down,
// insertion sort for buckets of at most radixCutoff keys, and no scratch
// buffer. From radixFanOut keys up, GOMAXPROCS goroutines share the 256
// top-level buckets; below it SortRadix allocates nothing. Keys carry no
// payload, so the result equals any correct sort's and the sort's lack
// of stability is unobservable.
func SortRadix[K Key](s []K) {
	shift := uint(8*Size[K]() - 8)
	if len(s) < radixFanOut {
		radixSort(s, shift)
		return
	}
	bounds := flagPermute(s, shift)
	var next atomic.Int32
	work := func() {
		for b := next.Add(1) - 1; b < 256; b = next.Add(1) - 1 {
			radixSort(s[bounds[b]:bounds[b+1]], shift-8)
		}
	}
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// radixSort sorts s by the byte at shift and every byte below it.
func radixSort[K Key](s []K, shift uint) {
	if len(s) <= radixCutoff {
		insertionSort(s)
		return
	}
	bounds := flagPermute(s, shift)
	if shift == 0 {
		return
	}
	for b := range 256 {
		radixSort(s[bounds[b]:bounds[b+1]], shift-8)
	}
}

// flagPermute moves every key of s into its bucket by the byte at shift,
// in place, by following each displaced key to its bucket's next free
// slot (the American-flag permutation). Bucket b is
// s[bounds[b]:bounds[b+1]] on return.
func flagPermute[K Key](s []K, shift uint) (bounds [257]int) {
	var next [256]int
	for _, k := range s {
		next[byte(k>>shift)]++
	}
	sum := 0
	for b, c := range next {
		bounds[b], next[b] = sum, sum
		sum += c
	}
	bounds[256] = sum
	for b := range 256 {
		for end := bounds[b+1]; next[b] < end; next[b]++ {
			k := s[next[b]]
			for d := byte(k >> shift); int(d) != b; d = byte(k >> shift) {
				s[next[d]], k = k, s[next[d]]
				next[d]++
			}
			s[next[b]] = k
		}
	}
	return bounds
}

func insertionSort[K Key](s []K) {
	for i := 1; i < len(s); i++ {
		k, j := s[i], i
		for ; j > 0 && s[j-1] > k; j-- {
			s[j] = s[j-1]
		}
		s[j] = k
	}
}

// SortBucket sorts src ascending into dst, which must be as long as src;
// src is left in an unspecified order. It is the in-cache sort for the
// buckets of a key set already partitioned by its top bits: one counting
// pass on the 8 bits just below bit shift spreads src over 256
// sub-buckets in dst, and an insertion sort finishes them in place. When
// every key agrees above shift and the keys below it are roughly
// uniform, each sub-bucket holds a few keys and the insertion sort is
// linear; any other input still sorts correctly, only slower.
// SortBucket allocates nothing.
func SortBucket[K Key](dst, src []K, shift uint) {
	if len(dst) != len(src) {
		panic("keys: SortBucket with dst and src of different lengths")
	}
	if shift >= 8 {
		shift -= 8
	} else {
		shift = 0
	}
	var next [256]int
	for _, k := range src {
		next[byte(k>>shift)]++
	}
	sum := 0
	for b, c := range next {
		next[b] = sum
		sum += c
	}
	for _, k := range src {
		d := byte(k >> shift)
		dst[next[d]] = k
		next[d]++
	}
	insertionSort(dst)
}
