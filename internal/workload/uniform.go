package workload

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"hbtree/internal/keys"
)

const (
	// bucketKeys is the mean bucket size the counting path aims for: a
	// bucket and its sort scratch stay in L1.
	bucketKeys = 512
	// maxBucketBits caps the bucket count, and with it the per-worker
	// counter arrays, for very large batches.
	maxBucketBits = 16
	// minWorkerDraws is the smallest share of the batch worth a
	// goroutine of its own.
	minWorkerDraws = 1 << 14
)

// firstBatch is how many keys DistinctKeys draws before its first sort.
func firstBatch(n int) int { return n + n/32 + 16 }

// uniformDataset is Dataset(Uniform, n, seed), computed without sorting
// the whole batch. Uniform draw i of NewRNG(seed) is
// uniformKey(nthOutput(seed, i)), a pure function of (seed, i), so the
// first batch of draws splits into contiguous index ranges that workers
// generate with no shared RNG. Four passes, each split across GOMAXPROCS
// workers:
//
//  1. every worker counts its draws per bucket of their top bits; prefix
//     sums give each (worker, bucket) its own write cursor, and buckets
//     that start past rank n plus a duplicate allowance are dropped;
//  2. every worker draws again and writes each kept key straight into
//     its bucket's region of the result;
//  3. workers claim buckets, sort each in cache with keys.SortBucket,
//     drop its duplicates (equal keys always share a bucket) and write
//     Pair{k, ValueFor(k)} back over the bucket's region;
//  4. a prefix sum over the distinct counts places each bucket; only a
//     batch with duplicates below rank n moves any pairs.
//
// The n smallest distinct keys of the first batch are exactly what
// DistinctKeys returns when that batch holds n distinct keys. When it
// does not (or when duplicates ate the allowance), uniformDataset falls
// back to the draw-sort-dedup loop, which draws the same batch again and
// tops it up. Tests pass a batch other than firstBatch(n) to drive that
// fallback.
func uniformDataset[K keys.Key](n, batch int, seed uint64) []keys.Pair[K] {
	width := uint(8 * keys.Size[K]())
	top := 64 - width
	bucketBits := uint(min(bits.Len(uint(batch/bucketKeys)), maxBucketBits))
	shift := width - bucketBits // a shift of width puts every key in bucket 0
	nb := 1 << bucketBits
	workers := max(1, min(runtime.GOMAXPROCS(0), batch/minWorkerDraws))
	span := func(w int) (int, int) { return batch * w / workers, batch * (w + 1) / workers }

	// Pass 1: count. cursor[w*nb+b] holds worker w's count in bucket b.
	cursor := make([]int, workers*nb)
	parallel(workers, func(w int) {
		c := cursor[w*nb : (w+1)*nb]
		lo, hi := span(w)
		for i := lo; i < hi; i++ {
			c[uniformKey(nthOutput(seed, i), top)>>shift]++
		}
	})

	// Keep every bucket that starts below n plus twice the expected
	// number of duplicates in the batch (a few hundred for 2^20 32-bit
	// keys, nothing for 64-bit ones), so duplicates rarely push a needed
	// key into a dropped bucket.
	limit := n + 64 + int(float64(batch)*float64(batch)/math.Ldexp(1, int(width)))
	start := make([]int, nb+1)
	kept, sum := 0, 0
	for b := 0; b < nb && sum < limit; b++ {
		start[b] = sum
		for w := range workers {
			c := cursor[w*nb+b]
			cursor[w*nb+b] = sum
			sum += c
		}
		kept = b + 1
	}
	start[kept] = sum
	if sum < n {
		return drawLoopDataset[K](Uniform, n, seed)
	}

	// Pass 2: scatter the kept keys into their buckets' regions.
	res := make([]keys.Pair[K], sum)
	parallel(workers, func(w int) {
		c := cursor[w*nb : (w+1)*nb]
		lo, hi := span(w)
		for i := lo; i < hi; i++ {
			k := uniformKey(nthOutput(seed, i), top)
			if b := int(k >> shift); b < kept {
				res[c[b]].Key = K(k)
				c[b]++
			}
		}
	})

	// Pass 3: sort and dedup each bucket in cache.
	maxCount := 0
	for b := range kept {
		maxCount = max(maxCount, start[b+1]-start[b])
	}
	distinct := make([]int, kept)
	var claim atomic.Int64
	parallel(workers, func(int) {
		src, dst := make([]K, maxCount), make([]K, maxCount)
		for b := int(claim.Add(1) - 1); b < kept; b = int(claim.Add(1) - 1) {
			region := res[start[b]:start[b+1]]
			s, d := src[:len(region)], dst[:len(region)]
			for i := range region {
				s[i] = region[i].Key
			}
			keys.SortBucket(d, s, shift)
			j := 0
			for i, k := range d {
				if i == 0 || k != d[i-1] {
					region[j] = keys.Pair[K]{Key: k, Value: ValueFor(k)}
					j++
				}
			}
			distinct[b] = j
		}
	})

	// Pass 4: place the buckets.
	at := 0
	for b := 0; b < kept && at < n; b++ {
		if at != start[b] {
			copy(res[at:], res[start[b]:start[b]+distinct[b]])
		}
		at += distinct[b]
	}
	if at < n {
		return drawLoopDataset[K](Uniform, n, seed)
	}
	// The pairs past n (the rest of the last bucket and the duplicate
	// allowance, a few KiB) stay allocated but out of reach.
	return res[:n:n]
}

// nthOutput is the i-th value (counting from 0) that NewRNG(seed).Uint64
// returns.
func nthOutput(seed uint64, i int) uint64 { return mix64(seed + uint64(i+1)*golden) }

// parallel runs fn(0) … fn(workers-1), the last on the calling goroutine,
// and returns when all have.
func parallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(workers - 1)
	wg.Wait()
}
