package main

import (
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
)

// cpubtreeBuild times the host-side bulk load alone, with the
// configuration core chose for the tree.
func (l *ladder) cpubtreeBuild(t *core.Tree[uint64]) {
	t0 := time.Now()
	var err error
	if impl := t.Implicit(); impl != nil {
		_, err = cpubtree.BuildImplicit(l.pairs, impl.Config())
	} else {
		_, err = cpubtree.BuildRegular(l.pairs, t.Regular().Config())
	}
	t1 := time.Now()
	l.out.Attempted++
	if err != nil {
		l.failf("cpubtree build: %v", err)
		return
	}
	l.span("cpubtree.build", "", 0, len(l.pairs), t0, t1)
	l.set("cpubtree.build_ns_per_pair", "cpubtree.build")
}

// cpubtreePoint times a point lookup and its two halves — the inner
// descent and the leaf-line search — on whichever organisation the
// read tree has.
func (l *ladder) cpubtreePoint(t *core.Tree[uint64]) {
	if impl := t.Implicit(); impl != nil {
		lines := make([]int, len(l.gets))
		l.pointRung("cpubtree.lookup", "core.lookup", func(_ int, q uint64) (uint64, bool) { return impl.Lookup(q) })
		l.blockRung("cpubtree.inner", "cpubtree.lookup", func(i int, q uint64) { lines[i] = impl.SearchInner(q) })
		l.pointRung("cpubtree.leaf", "cpubtree.lookup", func(i int, q uint64) (uint64, bool) { return impl.SearchLeafLine(lines[i], q) })
	} else {
		reg := t.Regular()
		refs := make([]cpubtree.LeafRef, len(l.gets))
		l.pointRung("cpubtree.lookup", "core.lookup", func(_ int, q uint64) (uint64, bool) { return reg.Lookup(q) })
		l.blockRung("cpubtree.inner", "cpubtree.lookup", func(i int, q uint64) {
			leaf, line := reg.SearchToLeaf(q)
			refs[i] = cpubtree.LeafRef{Leaf: leaf, Line: int32(line)}
		})
		l.pointRung("cpubtree.leaf", "cpubtree.lookup", func(i int, q uint64) (uint64, bool) {
			return reg.SearchLeafLine(refs[i].Leaf, int(refs[i].Line), q)
		})
	}
	l.set("cpubtree.lookup_ns", "cpubtree.lookup")
	l.set("cpubtree.inner_ns", "cpubtree.inner")
	l.set("cpubtree.leaf_ns", "cpubtree.leaf")
}

// cpubtreeBatch times the batched host searches bucket by bucket: the
// inner descent core's CPU-only path uses, the leaf stage of the hybrid
// search, and the leaf stage on a sorted bucket.
func (l *ladder) cpubtreeBatch(t *core.Tree[uint64]) {
	impl := t.Implicit()
	m := t.Options().BucketSize
	lines := make([]int32, m)
	vals, oks := make([]uint64, m), make([]bool, m)
	l.buckets(t, func(i, c, lo, hi int) error {
		pb, bn := l.plainBucket(c, lo, hi), hi-lo
		bq := pb.q
		t0 := time.Now()
		impl.SearchInnerBatch(bq, lines[:bn])
		t1 := time.Now()
		l.span("cpubtree.inner_batch", "", i, bn, t0, t1)

		t0 = time.Now()
		impl.SearchLeavesBatch(bq, lines[:bn], vals[:bn], oks[:bn])
		t1 = time.Now()
		l.span("cpubtree.leaf_batch", "core.batch", i, bn, t0, t1)
		l.check("cpubtree.leaf_batch", pb, vals[:bn], oks[:bn])

		sb := l.sortedBucket(c, lo, hi)
		sq := sb.q
		impl.SearchInnerBatch(sq, lines[:bn])
		t0 = time.Now()
		impl.SearchLeavesBatchSorted(sq, lines[:bn], vals[:bn], oks[:bn])
		t1 = time.Now()
		l.span("cpubtree.leaf_batch_sorted", "core.batch_sorted", i, bn, t0, t1)
		l.check("cpubtree.leaf_batch_sorted", sb, vals[:bn], oks[:bn])
		return nil
	})
	l.set("cpubtree.inner_batch_ns_per_q", "cpubtree.inner_batch")
	l.set("cpubtree.leaf_batch_ns_per_q", "cpubtree.leaf_batch")
	l.set("cpubtree.leaf_batch_sorted_ns_per_q", "cpubtree.leaf_batch_sorted")
}
