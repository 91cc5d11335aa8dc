package main

import (
	"slices"
	"time"

	"hbtree/internal/keys"
)

// keysSort times SortWithPerm on each bucket of shuffled queries, the
// sort the shared-descent path runs before every device stage.
func (l *ladder) keysSort() {
	size := len(l.batches.Queries[0])
	m := min(16384, size) // core.DefaultBucketSize; keys must not import core
	ks := make([]uint64, m)
	perm := make([]int32, m)
	for i := 0; i < l.nBatch; i++ {
		q := l.batches.Queries[i%len(l.batches.Queries)]
		for lo := 0; lo < size; lo += m {
			bn := copy(ks, q[lo:min(lo+m, size)])
			for j := range perm[:bn] {
				perm[j] = int32(j)
			}
			t0 := time.Now()
			keys.SortWithPerm(ks[:bn], perm[:bn])
			t1 := time.Now()
			l.span("keys.sort", "core.batch_sorted", i, bn, t0, t1)
			l.out.Attempted++
			if !slices.IsSorted(ks[:bn]) {
				l.failf("keys.sort: batch %d: output not sorted", i)
			}
		}
	}
	l.set("keys.sort_ns_per_key", "keys.sort")
}
