package cpubtree

import (
	"sync"
	"sync/atomic"

	"hbtree/internal/keys"
	"hbtree/internal/simd"
)

// This file implements batch lookups with software pipelining
// (Section 4.2, Algorithm 2). Each worker thread loads a group of P
// queries and advances all of them one tree level at a time: when a
// query's next node would stall on memory, the thread is already issuing
// the accesses of the other P-1 queries, overlapping computation with
// data fetching exactly as the paper's prefetch-enabled loop does. The
// paper found P = 16 optimal; Figure 20 sweeps it.

// maxPipelineGroup caps the number of queries one worker advances
// together, so the group's node cursors live on the stack; deeper
// configured pipelines run in groups of this size.
const maxPipelineGroup = 64

// leafGroup is how many leaf lines the implicit leaf stage loads before
// it searches any of them, so their cache misses overlap.
const leafGroup = 16

// LookupBatch resolves queries[i] into values[i]/found[i] using all
// configured worker threads and the configured software-pipeline depth.
// A batch too small to fan out runs on the caller without allocating.
func (t *ImplicitTree[K]) LookupBatch(queries []K, values []K, found []bool) {
	if runsInline(len(queries), t.cfg.Threads) {
		t.lookupPipelined(queries, values, found)
		return
	}
	parallelFor(len(queries), t.cfg.Threads, func(s, e int) {
		t.lookupPipelined(queries[s:e], values[s:e], found[s:e])
	})
}

// lookupPipelined is the single-thread software-pipelined lookup loop.
func (t *ImplicitTree[K]) lookupPipelined(qs []K, vals []K, fnd []bool) {
	p := min(t.cfg.PipelineDepth, maxPipelineGroup)
	if p <= 1 {
		for i, q := range qs {
			vals[i], fnd[i] = t.Lookup(q)
		}
		return
	}
	var node [maxPipelineGroup]int32
	for start := 0; start < len(qs); start += p {
		end := min(start+p, len(qs))
		grp := qs[start:end]
		t.descendGroup(grp, node[:len(grp)])
		t.searchLeavesRange(grp, node[:len(grp)], vals[start:end], fnd[start:end], 0, len(grp))
	}
}

// descendGroup resolves the inner levels for a group of queries,
// writing each one's leaf line into lines. It advances the whole group
// one level per step (Algorithm 2) with simd.DescendLevel, the level
// step of the device kernel, which loads every member's node before it
// searches any.
func (t *ImplicitTree[K]) descendGroup(grp []K, lines []int32) {
	var loaded [maxPipelineGroup]K
	lines = lines[:len(grp)]
	clear(lines)
	for d := 0; d < t.height; d++ {
		simd.DescendLevel(t.inner[t.levelSlot[d]:], t.levelKpn[d], t.levelFanout[d], grp, lines, loaded[:])
	}
	for i := range lines {
		lines[i] = min(lines[i], int32(t.numLeaves-1))
	}
}

// SearchInnerBatch resolves the inner-level traversal for a batch of
// queries, writing the target leaf line index per query. This is the
// work the HB+-tree runs on the GPU; the CPU-only evaluation of
// Figure 19 runs it here, with the grouped descent of LookupBatch.
func (t *ImplicitTree[K]) SearchInnerBatch(queries []K, lines []int32) {
	p := max(min(t.cfg.PipelineDepth, maxPipelineGroup), 1)
	parallelFor(len(queries), t.cfg.Threads, func(s, e int) {
		for g := s; g < e; g += p {
			h := min(g+p, e)
			t.descendGroup(queries[g:h], lines[g:h])
		}
	})
}

// SearchLeavesBatch finishes lookups whose inner traversal already
// produced leaf line indices — the CPU stage of the hybrid search
// (Section 5.4, step 4). It is software-pipelined over the L-segment.
func (t *ImplicitTree[K]) SearchLeavesBatch(queries []K, lines []int32, values []K, found []bool) {
	// Small batches run inline without constructing the fan-out closure,
	// keeping the steady-state serving pipeline allocation-free.
	if runsInline(len(queries), t.cfg.Threads) {
		t.searchLeavesRange(queries, lines, values, found, 0, len(queries))
		return
	}
	parallelFor(len(queries), t.cfg.Threads, func(s, e int) {
		t.searchLeavesRange(queries, lines, values, found, s, e)
	})
}

// searchLeavesRange finishes queries[s:e] leafGroup at a time: it loads
// the first key of every line in the group before it searches any line,
// so the group's misses overlap. Go has no prefetch intrinsic, so each
// search consumes its loaded key; a load whose value went unused could
// be deleted by the compiler.
func (t *ImplicitTree[K]) searchLeavesRange(queries []K, lines []int32, values []K, found []bool, s, e int) {
	var first [leafGroup]K
	for g := s; g < e; g += leafGroup {
		ls := lines[g:min(g+leafGroup, e)]
		for j, l := range ls {
			first[j] = t.leaves[int(l)*t.kpn]
		}
		for j, l := range ls {
			values[g+j], found[g+j] = t.searchLoadedLine(int(l), first[j], queries[g+j])
		}
	}
}

// SearchLeavesBatchSorted is SearchLeavesBatch for a sorted batch, whose
// leaf line indices arrive non-decreasing: it returns the number of
// distinct leaf lines touched, which the cost model charges instead of
// one line per query — adjacent sorted queries landing in the same line
// find it already resident. The lines are counted over the whole batch,
// so the count does not depend on how many workers the search fans out
// over. Results are identical to SearchLeavesBatch.
func (t *ImplicitTree[K]) SearchLeavesBatchSorted(queries []K, lines []int32, values []K, found []bool) int {
	t.SearchLeavesBatch(queries, lines, values, found)
	return distinctRuns(lines[:len(queries)])
}

// distinctRuns counts the runs of equal adjacent elements of xs: the
// distinct values of a sorted slice.
func distinctRuns[T comparable](xs []T) int {
	n := 0
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			n++
		}
	}
	return n
}

// LeafRef identifies one leaf cache line of the regular tree: big leaf
// index plus line within it. It is the intermediate result the GPU
// returns to the CPU for the regular HB+-tree.
type LeafRef struct {
	Leaf int32
	Line int32
}

// LookupBatch resolves queries[i] into values[i]/found[i] using all
// configured worker threads and software pipelining. A batch too small
// to fan out runs on the caller without allocating.
func (t *RegularTree[K]) LookupBatch(queries []K, values []K, found []bool) {
	if runsInline(len(queries), t.cfg.Threads) {
		t.lookupPipelined(queries, values, found)
		return
	}
	parallelFor(len(queries), t.cfg.Threads, func(s, e int) {
		t.lookupPipelined(queries[s:e], values[s:e], found[s:e])
	})
}

func (t *RegularTree[K]) lookupPipelined(qs []K, vals []K, fnd []bool) {
	p := min(t.cfg.PipelineDepth, maxPipelineGroup)
	if p <= 1 {
		for i, q := range qs {
			vals[i], fnd[i] = t.Lookup(q)
		}
		return
	}
	var node [maxPipelineGroup]int32
	for start := 0; start < len(qs); start += p {
		end := start + p
		if end > len(qs) {
			end = len(qs)
		}
		grp := qs[start:end]
		n := len(grp)
		for i := 0; i < n; i++ {
			node[i] = t.root
		}
		for h := t.height; h >= 2; h-- {
			for i := 0; i < n; i++ {
				c := t.searchNode(t.upper, node[i], grp[i])
				node[i] = int32(t.nodeRefs(t.upper, node[i])[c])
			}
		}
		for i := 0; i < n; i++ {
			pg, j := t.lastAt(node[i])
			c := t.searchNode(pg, j, grp[i])
			vals[start+i], fnd[start+i] = t.SearchLeafLine(node[i], c, grp[i])
		}
	}
}

// SearchLeavesBatch finishes lookups from leaf references (the CPU stage
// of the hybrid search).
func (t *RegularTree[K]) SearchLeavesBatch(queries []K, refs []LeafRef, values []K, found []bool) {
	// As with the implicit variant, small batches avoid the fan-out
	// closure so steady-state serving stays allocation-free.
	if runsInline(len(queries), t.cfg.Threads) {
		t.searchLeavesRange(queries, refs, values, found, 0, len(queries))
		return
	}
	parallelFor(len(queries), t.cfg.Threads, func(s, e int) {
		t.searchLeavesRange(queries, refs, values, found, s, e)
	})
}

func (t *RegularTree[K]) searchLeavesRange(queries []K, refs []LeafRef, values []K, found []bool, s, e int) {
	for i := s; i < e; i++ {
		values[i], found[i] = t.SearchLeafLine(refs[i].Leaf, int(refs[i].Line), queries[i])
	}
}

// SearchLeavesBatchSorted is SearchLeavesBatch for a sorted batch: the
// (leaf, line) references arrive grouped, and the returned distinct
// count, over the whole batch, is what the shared cost model charges
// for the leaf stage's memory traffic. Results are identical to
// SearchLeavesBatch.
func (t *RegularTree[K]) SearchLeavesBatchSorted(queries []K, refs []LeafRef, values []K, found []bool) int {
	t.SearchLeavesBatch(queries, refs, values, found)
	return distinctRuns(refs[:len(queries)])
}

// MixedKind distinguishes the operations of a mixed search/update batch
// (Appendix B.3).
type MixedKind uint8

// Mixed-batch operation kinds.
const (
	MixedSearch MixedKind = iota
	MixedInsert
	MixedDelete
)

// MixedOp is one operation of a concurrent search/update batch.
type MixedOp[K keys.Key] struct {
	Kind  MixedKind
	Key   K
	Value K
}

// MixedResult reports the outcome of a mixed batch.
type MixedResult[K keys.Key] struct {
	Values     []K
	Found      []bool
	Structural int
	DirtyLast  []int32
}

// MixedBatch executes searches and updates concurrently with the
// asynchronous locking scheme of Section 5.6: every operation descends
// the (structurally frozen) upper levels lock-free, then takes the
// striped mutex of its last-level node before touching the node or its
// big leaf. Structural leftovers run single-threaded at the end, as in
// ApplyBatchParallel. This is the executor evaluated in Figure 21, where
// "the execution of buckets with 100% search queries ... is not as fast
// as our previously evaluated lookup methods ... due to the mutex
// locking and synchronization overhead".
func (t *RegularTree[K]) MixedBatch(ops []MixedOp[K], threads int) MixedResult[K] {
	t.ensurePrivate() // before the workers: it may copy record pages
	if threads <= 0 {
		threads = t.cfg.Threads
	}
	res := MixedResult[K]{
		Values: make([]K, len(ops)),
		Found:  make([]bool, len(ops)),
	}
	var locks [lockStripes]sync.Mutex
	var cursor atomic.Int64
	var pendingMu sync.Mutex
	type pendingOp struct {
		op   MixedOp[K]
		leaf int32
	}
	var pending []pendingOp
	dirtyCh := make([][]int32, threads)
	var np atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := cursor.Add(1) - 1
				if int(i) >= len(ops) {
					return
				}
				op := ops[i]
				b := t.descendUpper(op.Key)
				lk := lockOf(&locks, b)
				lk.Lock()
				switch op.Kind {
				case MixedSearch:
					pg, j := t.lastAt(b)
					c := t.searchNode(pg, j, op.Key)
					res.Values[i], res.Found[i] = t.SearchLeafLine(b, int(c), op.Key)
				case MixedInsert:
					if added, ok := t.leafInsert(b, op.Key, op.Value); ok {
						if added {
							np.Add(1)
						}
						dirtyCh[w] = append(dirtyCh[w], b)
					} else {
						pendingMu.Lock()
						pending = append(pending, pendingOp{op: op, leaf: b})
						pendingMu.Unlock()
					}
				case MixedDelete:
					found, emptied := t.leafDelete(b, op.Key)
					res.Found[i] = found
					if found {
						np.Add(-1)
						dirtyCh[w] = append(dirtyCh[w], b)
						if emptied {
							pendingMu.Lock()
							pending = append(pending, pendingOp{op: op, leaf: b})
							pendingMu.Unlock()
						}
					}
				}
				lk.Unlock()
			}
		}(w)
	}
	wg.Wait()

	t.numPairs += int(np.Load())
	dirty := make(map[int32]struct{})
	for _, d := range dirtyCh {
		for _, b := range d {
			dirty[b] = struct{}{}
		}
	}

	freed := make(map[int32]struct{})
	for _, p := range pending {
		switch p.op.Kind {
		case MixedInsert:
			structural, err := t.Insert(p.op.Key, p.op.Value)
			if err == nil && structural {
				res.Structural++
			}
		case MixedDelete:
			if _, done := freed[p.leaf]; done || t.leaf(p.leaf).npairs != 0 {
				continue
			}
			freed[p.leaf] = struct{}{}
			t.removeLeaf(p.leaf)
			res.Structural++
		}
	}
	for b := range dirty {
		res.DirtyLast = append(res.DirtyLast, b)
	}
	return res
}
