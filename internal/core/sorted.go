package core

import (
	"fmt"

	"hbtree/internal/cpubtree"
	"hbtree/internal/fault"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/vclock"
)

// This file is the sorted, level-wise shared-descent batch search: the
// read-path counterpart of the FPGA batch-traversal idea referenced in
// PAPERS.md. A sorted bucket keeps every level's frontier
// non-decreasing, so queries resolving to the same inner node form
// contiguous runs that share one node probe; duplicates collapse to one
// descent entirely. The serving layer's coalescer presorts and
// deduplicates its batches, so the hot path takes the zero-copy fast
// lane below — the sort/permutation machinery only runs for callers
// that hand over unsorted batches, and results always return in caller
// order either way.
//
// A sorted bucket runs the plain plan's grouped kernel and leaf stage;
// the sorted launches only count, level by level, the distinct nodes
// and lines the frontier touches, which the virtual clock charges in
// place of one probe per query (gpuStageDurationShared,
// cpuLeafStageDurationShared). Buckets run in order on the caller's
// goroutine, as plain buckets do; the timeline overlaps them.

// LookupBatchSortedInto resolves the queries with the shared-descent
// batch search into caller-owned result slices (at least len(queries)
// long each). Results are byte-identical to LookupBatchInto over the
// same queries and are returned in caller order — the queries
// themselves need not be sorted (each bucket is sorted internally,
// tracking the permutation), but presorted duplicate-free input skips
// that work entirely. Like LookupBatchInto, the steady state allocates
// nothing: the sort, permutation, dedup and scatter staging all live in
// the tree's pooled scratch, sized to the bucket once (grow-once) on
// first use. The load-balanced variant has no shared-descent form and
// runs the Section 5.5 executor instead.
func (t *Tree[K]) LookupBatchSortedInto(queries []K, values []K, found []bool) (SearchStats, error) {
	n := len(queries)
	if len(values) < n || len(found) < n {
		return SearchStats{}, fmt.Errorf("core: LookupBatchSortedInto: result slices hold %d/%d elements, need %d",
			len(values), len(found), n)
	}
	if t.opt.LoadBalance {
		return t.lookupBatchBalanced(queries[:n:n], values[:n], found[:n])
	}
	return t.lookupBatchSortedInto(queries[:n:n], values[:n], found[:n])
}

func (t *Tree[K]) lookupBatchSortedInto(queries []K, values []K, found []bool) (stats SearchStats, err error) {
	stats.Sorted = true
	n := len(queries)
	if n == 0 {
		return stats, nil
	}
	if t.replicaStale.Load() {
		return stats, fault.ErrReplicaStale
	}
	m := t.opt.BucketSize
	stats.BucketSize = m
	stats.Queries = n

	sc, err := t.acquireScratch()
	if err != nil {
		return stats, err
	}
	defer t.releaseScratch(sc)
	t.ensureSorted(sc)
	st := &sc.sorted

	nbuf := t.numBuffers()
	tl := sc.tl
	tl.Reset()
	if t.traceOn.Load() {
		tl = vclock.NewTimeline()
		tl.SetTrace(true)
		t.setLastTrace(tl)
	}
	var sumT1, sumT2, sumT3, sumT4 vclock.Duration
	lats := sc.lats[:0]

	perQuery := t.perQueryTrans()
	buckets := 0
	for lo := 0; lo < n; lo += m {
		hi := min(lo+m, n)
		bq := queries[lo:hi]
		bn := len(bq)

		prepareSorted(st, bq)
		u := len(st.ukeys)
		clear(st.lvl[:])
		d1, err := t.copyQueriesToDevice(sc.qbuf, st.ukeys)
		if err != nil {
			return stats, err
		}
		trans, d2, err := t.runKernelSorted(sc.qbuf, sc.rbuf, u, st.lvl[:])
		if err != nil {
			return stats, err
		}

		stream := buckets
		if t.opt.Strategy == Sequential {
			stream = 0
		} else if idx := buckets - nbuf; idx >= 0 {
			tl.AdvanceStream(stream, sc.d2h[idx%scratchRing])
		}
		h2dStart, _ := tl.Schedule(stream, vclock.ResPCIeH2D, "H2D", d1)
		tl.Schedule(stream, vclock.ResGPU, "kernel", d2)
		d3 := t.dev.CopyDuration(int64(u) * t.resultSize())
		_, dEnd := tl.Schedule(stream, vclock.ResPCIeD2H, "D2H", d3)
		sc.d2h[buckets%scratchRing] = dEnd

		uvals, ufnd := st.uvals[:u], st.ufnd[:u]
		if st.fast {
			// Presorted duplicate-free bucket: the leaf stage writes
			// straight into the caller's slices, no scatter needed.
			uvals, ufnd = values[lo:hi], found[lo:hi]
		}
		lines, err := t.finishLeavesSorted(sc.rbuf, st.ukeys, uvals, ufnd, sc.res, sc.refs)
		if err != nil {
			return stats, err
		}
		scatterSorted(st, bn, values[lo:hi], found[lo:hi])
		d4 := t.cpuLeafStageDurationShared(u, lines)
		_, cEnd := tl.Schedule(stream, vclock.ResCPU, "leaf", d4)

		lats = append(lats, cEnd-h2dStart)
		sumT1 += d1
		sumT2 += d2
		sumT3 += d3
		sumT4 += d4
		stats.NodeProbes += trans
		if base := int64(bn) * perQuery; base > trans {
			stats.ProbesSaved += base - trans
		}
		stats.DedupFolded += st.dups
		stats.LeafLines += lines
		for i := 0; i < StatLevels; i++ {
			stats.LevelProbes[i] += st.lvl[i]
		}
		buckets++
	}
	sc.lats = lats // keep any grown capacity for the next batch

	stats.Buckets = buckets
	stats.setLatencies(lats)
	stats.T1 = sumT1 / vclock.Duration(buckets)
	stats.T2 = sumT2 / vclock.Duration(buckets)
	stats.T3 = sumT3 / vclock.Duration(buckets)
	stats.T4 = sumT4 / vclock.Duration(buckets)
	stats.finalize(tl)
	return stats, nil
}

// prepareSorted classifies and stages one bucket. A single scan detects
// the coalescer's contract (sorted ascending, duplicate-free), which
// skips the copy, sort and scatter wholesale; otherwise the bucket is
// copied aside, co-sorted with its caller positions, and deduplicated —
// uref maps each sorted slot to its unique slot so the scatter can fan
// one result out to every duplicate.
func prepareSorted[K keys.Key](st *sortedStage[K], bq []K) {
	bn := len(bq)
	st.dups = 0
	sorted, distinct := true, true
	for i := 1; i < bn; i++ {
		if bq[i] < bq[i-1] {
			sorted = false
			break
		} else if bq[i] == bq[i-1] {
			distinct = false
		}
	}
	if sorted && distinct {
		st.fast = true
		st.permuted = false
		st.ukeys = bq
		return
	}
	st.fast = false
	skeys := st.skeys[:bn]
	copy(skeys, bq)
	st.permuted = !sorted
	if !sorted {
		perm := st.perm[:bn]
		for i := range perm {
			perm[i] = int32(i)
		}
		keys.SortWithPerm(skeys, perm)
	}
	u := 0
	var last K
	uref := st.uref
	for i := 0; i < bn; i++ {
		k := skeys[i]
		if u > 0 && k == last {
			uref[i] = int32(u - 1)
			continue
		}
		skeys[u] = k
		uref[i] = int32(u)
		last = k
		u++
	}
	st.dups = bn - u
	st.ukeys = skeys[:u]
}

// scatterSorted distributes the unique-key results back to caller
// order, fanning each result out to its duplicates. Fast-path buckets
// already wrote in place.
func scatterSorted[K keys.Key](st *sortedStage[K], bn int, values []K, found []bool) {
	if st.fast {
		return
	}
	uref := st.uref
	if !st.permuted {
		for i := 0; i < bn; i++ {
			j := uref[i]
			values[i] = st.uvals[j]
			found[i] = st.ufnd[j]
		}
		return
	}
	perm := st.perm
	for i := 0; i < bn; i++ {
		p := perm[i]
		j := uref[i]
		values[p] = st.uvals[j]
		found[p] = st.ufnd[j]
	}
}

// perQueryTrans is the unsorted kernel's transaction count per query —
// the baseline ProbesSaved is measured against.
func (t *Tree[K]) perQueryTrans() int64 {
	if t.opt.Variant == Regular {
		return int64(t.regDesc.Height) * 3
	}
	return t.implDesc.TransPerQuery(0)
}

// runKernelSorted executes the inner-level traversal of u sorted
// unique queries on the device replica, returning the shared-descent
// transaction count and the modelled T2.
func (t *Tree[K]) runKernelSorted(qbuf *gpusim.Buffer[K], rbuf *gpusim.Buffer[int32], u int, lvl []int64) (int64, vclock.Duration, error) {
	switch t.opt.Variant {
	case Implicit:
		trans, err := gpusim.ImplicitSearchKernelSorted(t.dev, t.isegBuf.Pages()[0], t.implDesc,
			qbuf.Data()[:u], rbuf.Data()[:u], lvl)
		if err != nil {
			return 0, 0, err
		}
		return trans, t.gpuStageDurationShared(u, float64(t.implDesc.TransPerQuery(0)), trans), nil
	default:
		out := rbuf.Data()
		trans, err := gpusim.RegularSearchKernelSorted(t.dev, t.upperBuf.Pages()[0], t.lastBuf.Pages(), t.regDesc,
			qbuf.Data()[:u], out[:u], out[u:2*u], lvl)
		if err != nil {
			return 0, 0, err
		}
		return trans, t.gpuStageDurationShared(u, float64(t.regDesc.Height), trans), nil
	}
}

// finishLeavesSorted is the sorted leaf stage: D2H of the unique
// results, then the shared leaf search, returning the distinct leaf
// lines touched (what the shared cost model charges).
func (t *Tree[K]) finishLeavesSorted(rbuf *gpusim.Buffer[int32], ukeys []K, values []K, found []bool, res []int32, refs []cpubtree.LeafRef) (int, error) {
	u := len(ukeys)
	res = res[:2*u]
	if _, err := rbuf.CopyToHost(res); err != nil {
		return 0, err
	}
	if t.opt.Variant == Implicit {
		return t.impl.SearchLeavesBatchSorted(ukeys, res[:u], values, found), nil
	}
	refs = refs[:u]
	for i := 0; i < u; i++ {
		refs[i] = cpubtree.LeafRef{Leaf: res[i], Line: res[u+i]}
	}
	return t.reg.SearchLeavesBatchSorted(ukeys, refs, values, found), nil
}
