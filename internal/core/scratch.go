package core

import (
	"fmt"

	"hbtree/internal/cpubtree"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/vclock"
)

// This file provides the pooled per-batch working state that makes the
// steady-state serving path allocation-free: the device staging buffers
// of the four-step search, the host-side intermediate-result staging,
// the virtual timeline, and the per-bucket latency records. Without it
// every LookupBatch call paid two device allocations, a timeline, a
// map, and several slices — garbage that a server processing millions
// of lookups per second cannot afford.

// scratchPoolCap bounds how many scratch sets a tree keeps alive
// between batches; concurrent batches beyond the cap allocate and free
// their scratch instead of pooling it.
const scratchPoolCap = 4

// scratchRing is the d2h completion ring size; it must exceed the
// maximum in-flight bucket count (numBuffers <= 3).
const scratchRing = 4

// sortedStage is the sorted path's per-bucket staging, reused by each
// bucket in turn.
type sortedStage[K keys.Key] struct {
	skeys []K     // sorted (then deduplicated) copy of the bucket's keys
	perm  []int32 // caller position of each sorted slot (nil: identity)
	uref  []int32 // sorted slot -> unique slot after dedup
	uvals []K     // per-unique-key leaf results
	ufnd  []bool
	lvl   [StatLevels]int64 // per-level kernel transaction counts

	ukeys    []K  // kernel input: skeys[:u] or the caller's bucket (fast path)
	fast     bool // input already sorted and duplicate-free: no scatter
	permuted bool // bucket was sorted here: scatter through perm
	dups     int  // duplicate keys folded out of this bucket
}

// searchScratch is one batch execution's reusable working state.
type searchScratch[K keys.Key] struct {
	qbuf *gpusim.Buffer[K]     // device query staging (BucketSize elements)
	rbuf *gpusim.Buffer[int32] // device intermediate results (2*BucketSize)

	res  []int32                      // host staging for D2H results
	refs []cpubtree.LeafRef           // regular-variant leaf references
	lats []vclock.Duration            // per-bucket completion latencies
	d2h  [scratchRing]vclock.Duration // completion ring for buffer reuse edges
	tl   *vclock.Timeline

	// sorted is the sorted path's sort/dedup/scatter staging, allocated
	// grow-once on first use (ensureSorted).
	sorted sortedStage[K]
}

// newSearchScratch allocates scratch sized for the tree's bucket.
func (t *Tree[K]) newSearchScratch() (*searchScratch[K], error) {
	m := t.opt.BucketSize
	qbuf, err := gpusim.Malloc[K](t.dev, m)
	if err != nil {
		return nil, fmt.Errorf("core: allocating query buffer: %w", err)
	}
	rbuf, err := gpusim.Malloc[int32](t.dev, 2*m)
	if err != nil {
		qbuf.Free()
		return nil, fmt.Errorf("core: allocating result buffer: %w", err)
	}
	return &searchScratch[K]{
		qbuf: qbuf,
		rbuf: rbuf,
		res:  make([]int32, 2*m),
		refs: make([]cpubtree.LeafRef, m),
		lats: make([]vclock.Duration, 0, 8),
		tl:   vclock.NewTimeline(),
	}, nil
}

// free releases the scratch's device memory.
func (s *searchScratch[K]) free() {
	s.qbuf.Free()
	s.rbuf.Free()
}

// ensureSorted sizes the sorted-path staging exactly once per scratch
// (grow-once: every buffer is cut to the full bucket size on first use,
// so no later batch — at any coalesce window up to BucketSize —
// triggers a re-allocation). It is the only allocation the sorted path
// ever performs after the scratch itself is pooled.
func (t *Tree[K]) ensureSorted(sc *searchScratch[K]) {
	st := &sc.sorted
	if st.skeys != nil {
		return
	}
	m := t.opt.BucketSize
	st.skeys = make([]K, m)
	st.perm = make([]int32, m)
	st.uref = make([]int32, m)
	st.uvals = make([]K, m)
	st.ufnd = make([]bool, m)
}

// acquireScratch takes a pooled scratch or allocates a fresh one.
func (t *Tree[K]) acquireScratch() (*searchScratch[K], error) {
	select {
	case sc := <-t.scratch:
		return sc, nil
	default:
		return t.newSearchScratch()
	}
}

// releaseScratch returns scratch to the pool, or frees it when the pool
// is full.
func (t *Tree[K]) releaseScratch(sc *searchScratch[K]) {
	select {
	case t.scratch <- sc:
	default:
		sc.free()
	}
}

// drainScratch frees every pooled scratch (Close path; idempotent).
func (t *Tree[K]) drainScratch() {
	for {
		select {
		case sc := <-t.scratch:
			sc.free()
		default:
			return
		}
	}
}
