package core

import (
	"fmt"
	"slices"

	"hbtree/internal/cpubtree"
	"hbtree/internal/fault"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/model"
	"hbtree/internal/vclock"
)

// StatLevels bounds the per-level probe breakdown recorded in
// SearchStats.LevelProbes; tree heights never approach it.
const StatLevels = 16

// SearchStats summarises one LookupBatch execution: the simulated
// makespan, throughput and latency, plus the average per-bucket stage
// durations T1..T4 of the Section 5.4 cost model, for inspection by the
// harness and tests.
type SearchStats struct {
	Queries    int
	Buckets    int
	BucketSize int

	SimTime       vclock.Duration // virtual makespan of the whole batch
	ThroughputQPS float64         // Queries / SimTime
	AvgLatency    vclock.Duration // mean bucket completion - admission

	// Latency percentiles over the per-bucket completion latencies.
	LatencyP50, LatencyP95, LatencyP99 vclock.Duration

	T1, T2, T3, T4 vclock.Duration // average per-bucket stage durations

	// Shared-descent accounting, filled by LookupBatchSortedInto (zero
	// on the unsorted path). NodeProbes is the number of device-memory
	// transactions the kernels actually issued; ProbesSaved is how many
	// the per-query descent would have issued on top of that;
	// LevelProbes breaks NodeProbes down by inner level (root first).
	// DedupFolded counts duplicate keys folded out before the descent,
	// and LeafLines the distinct leaf lines the CPU stage touched.
	Sorted      bool
	NodeProbes  int64
	ProbesSaved int64
	DedupFolded int
	LeafLines   int
	LevelProbes [StatLevels]int64
}

// setLatencies fills the average and percentile latency fields from the
// per-bucket completion latencies. lats is sorted in place (every
// caller owns its slice).
func (s *SearchStats) setLatencies(lats []vclock.Duration) {
	if len(lats) == 0 {
		return
	}
	var sum vclock.Duration
	for _, l := range lats {
		sum += l
	}
	s.AvgLatency = sum / vclock.Duration(len(lats))
	slices.Sort(lats)
	pick := func(q float64) vclock.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	s.LatencyP50 = pick(0.50)
	s.LatencyP95 = pick(0.95)
	s.LatencyP99 = pick(0.99)
}

func (s *SearchStats) finalize(tl *vclock.Timeline) {
	s.SimTime = tl.Now()
	if s.SimTime > 0 {
		s.ThroughputQPS = float64(s.Queries) / s.SimTime.Seconds()
	}
}

// LookupBatch resolves the queries with the heterogeneous CPU-GPU search
// of Section 5.4: queries are split into buckets of M, each bucket flows
// through H2D copy -> GPU inner traversal -> D2H copy -> CPU leaf
// search, and buckets are scheduled according to the configured strategy
// (sequential, pipelined, double-buffered) — or the load-balanced
// variant when enabled. Results are exact (computed on the device
// replica and host leaves); timing is virtual. It is LookupBatchInto
// into freshly allocated result slices.
func (t *Tree[K]) LookupBatch(queries []K) (values []K, found []bool, stats SearchStats, err error) {
	values, found = make([]K, len(queries)), make([]bool, len(queries))
	if stats, err = t.LookupBatchInto(queries, values, found); err != nil {
		return nil, nil, stats, err
	}
	return values, found, stats, nil
}

// LookupBatchInto is LookupBatch into caller-provided result slices,
// which must hold at least len(queries) elements. On the plain
// (non-load-balanced) path the steady state performs no heap allocation
// — device staging buffers, host staging slices and the virtual
// timeline come from the tree's scratch pool. The load-balanced path
// runs the Section 5.5 executor, which allocates its own staging.
func (t *Tree[K]) LookupBatchInto(queries []K, values []K, found []bool) (SearchStats, error) {
	n := len(queries)
	if len(values) < n || len(found) < n {
		return SearchStats{}, fmt.Errorf("core: LookupBatchInto: result slices hold %d/%d elements, need %d",
			len(values), len(found), n)
	}
	if t.opt.LoadBalance {
		return t.lookupBatchBalanced(queries[:n:n], values[:n], found[:n])
	}
	return t.lookupBatchPlainInto(queries[:n:n], values[:n], found[:n])
}

func (t *Tree[K]) lookupBatchPlainInto(queries []K, values []K, found []bool) (stats SearchStats, err error) {
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

	// Per-batch working state comes from the tree's pool; the device
	// staging buffers are functionally reused across buckets and the
	// timeline's buffer-dependency edges model their reuse.
	sc, err := t.acquireScratch()
	if err != nil {
		return stats, err
	}
	defer t.releaseScratch(sc)

	nbuf := t.numBuffers()
	tl := sc.tl
	tl.Reset()
	if t.traceOn.Load() {
		// A traced batch records onto a fresh timeline so the published
		// trace is not clobbered when the pooled timeline is reused.
		tl = vclock.NewTimeline()
		tl.SetTrace(true)
		t.setLastTrace(tl)
	}
	var sumT1, sumT2, sumT3, sumT4 vclock.Duration
	lats := sc.lats[:0]

	buckets := 0
	for start := 0; start < n; start += m {
		end := start + m
		if end > n {
			end = n
		}
		bq := queries[start:end]
		bn := len(bq)
		stream := buckets
		if t.opt.Strategy == Sequential {
			stream = 0 // one stream: no overlap at all
		} else if idx := buckets - nbuf; idx >= 0 {
			// The staging buffer is reused once its previous bucket's
			// intermediate results have left the device.
			tl.AdvanceStream(stream, sc.d2h[idx%scratchRing])
		}

		// Step 1: transfer the bucket to GPU memory.
		d1, err := t.copyQueriesToDevice(sc.qbuf, bq)
		if err != nil {
			return stats, err
		}
		h2dStart, _ := tl.Schedule(stream, vclock.ResPCIeH2D, "H2D", d1)

		// Step 2: GPU traversal of all inner levels (functional kernel
		// on the device replica).
		d2, err := t.runKernel(sc.qbuf, sc.rbuf, bn)
		if err != nil {
			return stats, err
		}
		tl.Schedule(stream, vclock.ResGPU, "kernel", d2)

		// Step 3: transfer intermediate results to CPU memory.
		d3 := t.dev.CopyDuration(int64(bn) * t.resultSize())
		_, dEnd := tl.Schedule(stream, vclock.ResPCIeD2H, "D2H", d3)
		sc.d2h[buckets%scratchRing] = dEnd

		// Step 4: CPU finishes the search in the leaf nodes.
		d4 := t.cpuLeafStageDuration(bn)
		if err := t.finishLeaves(sc.rbuf, bq, values[start:end], found[start:end], sc.res, sc.refs); err != nil {
			return stats, err
		}
		_, cEnd := tl.Schedule(stream, vclock.ResCPU, "leaf", d4)

		lats = append(lats, cEnd-h2dStart)
		sumT1 += d1
		sumT2 += d2
		sumT3 += d3
		sumT4 += d4
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

// numBuffers returns how many buckets may be in flight: 1 for strictly
// sequential handling, 2 for the pipelined strategies ("we restrict the
// number of query buckets in the not-load-balanced version to two"), 3
// with load balancing (Section 5.5).
func (t *Tree[K]) numBuffers() int {
	switch {
	case t.opt.Strategy == Sequential:
		return 1
	case t.opt.LoadBalance:
		return 3
	case t.opt.Strategy == Pipelined:
		return 1 // single staging buffer: next H2D waits for prior D2H (Figure 5)
	default:
		return 2 // double buffering (Figure 6)
	}
}

// copyQueriesToDevice stages a bucket in device memory, returning T1.
// The only failure mode is an injected transfer fault (the buffer is
// sized to BucketSize, so bq always fits).
func (t *Tree[K]) copyQueriesToDevice(qbuf *gpusim.Buffer[K], bq []K) (vclock.Duration, error) {
	return qbuf.CopyFromHost(bq)
}

// runKernel executes the inner-level traversal on the device replica,
// writing intermediate results into rbuf, and returns T2.
func (t *Tree[K]) runKernel(qbuf *gpusim.Buffer[K], rbuf *gpusim.Buffer[int32], bn int) (vclock.Duration, error) {
	switch t.opt.Variant {
	case Implicit:
		if _, err := gpusim.ImplicitSearchKernel(t.dev, t.isegBuf.Data(), t.implDesc,
			qbuf.Data()[:bn], rbuf.Data()[:bn], 0, nil); err != nil {
			return 0, err
		}
		// Charge the per-query transaction count of the descriptor's
		// layout: line-levels, not node-levels, so a tuned tree's wide
		// nodes cost their extra lines. Uniform layouts reduce to Height.
		return t.gpuStageDurationF(bn, float64(t.implDesc.TransPerQuery(0))), nil
	default:
		out := rbuf.Data()
		if _, err := gpusim.RegularSearchKernel(t.dev, t.upperBuf.Data(), t.lastBuf.Data(), t.regDesc,
			qbuf.Data()[:bn], out[:bn], out[bn:2*bn], 0, nil); err != nil {
			return 0, err
		}
		return t.gpuStageDuration(bn, t.regDesc.Height), nil
	}
}

// finishLeaves runs step 4 functionally: the CPU searches the leaf
// lines named by the device-resident intermediate results. res must
// hold at least 2*len(bq) elements; refs may be nil (the regular
// variant then allocates it) or hold at least len(bq) elements. It
// fails only on an injected D2H fault.
func (t *Tree[K]) finishLeaves(rbuf *gpusim.Buffer[int32], bq []K, values []K, found []bool, res []int32, refs []cpubtree.LeafRef) error {
	bn := len(bq)
	res = res[:2*bn]
	if _, err := rbuf.CopyToHost(res); err != nil {
		return err
	}
	if t.opt.Variant == Implicit {
		t.impl.SearchLeavesBatch(bq, res[:bn], values, found)
		return nil
	}
	if refs == nil {
		refs = make([]cpubtree.LeafRef, bn)
	}
	refs = refs[:bn]
	for i := 0; i < bn; i++ {
		refs[i] = cpubtree.LeafRef{Leaf: res[i], Line: res[bn+i]}
	}
	t.reg.SearchLeavesBatch(bq, refs, values, found)
	return nil
}

// LookupBatchCPUInto resolves the queries entirely on the CPU using the
// HB+-tree's own node layout — the Appendix B.1 comparison (Figure 19),
// where the implicit HB+-tree pays for its reduced fanout — into
// caller-owned result slices (at least len(queries) long each). It
// never touches the simulated device, which makes it the degraded-mode
// serving path: when the circuit breaker over the GPU-sim is open, the
// serving layer answers every batch through this host-only search at
// the Appendix B.1 cost.
func (t *Tree[K]) LookupBatchCPUInto(queries []K, values []K, found []bool) (stats SearchStats) {
	n := len(queries)
	stats.Queries = n
	stats.Buckets = 1
	stats.BucketSize = n
	if n == 0 {
		return stats
	}
	if t.impl != nil {
		t.impl.LookupBatch(queries, values[:n], found[:n])
	} else {
		t.reg.LookupBatch(queries, values[:n], found[:n])
	}
	stats.SimTime = t.cpuFullLookupBatch(n, 0)
	if stats.SimTime > 0 {
		stats.ThroughputQPS = float64(n) / stats.SimTime.Seconds()
	}
	p, searches := t.lookupProfile()
	stats.AvgLatency = cpuPerQuery(t.opt.Machine.CPU, t.opt.NodeSearch, searches, p, 0,
		t.opt.PipelineDepth, 0) * vclock.Duration(t.opt.PipelineDepth)
	return stats
}

// RangeStats reports a batch range execution.
type RangeStats struct {
	Queries       int
	Matches       int
	SimTime       vclock.Duration
	ThroughputQPS float64
}

// RangeQueryBatch executes many range queries hybrid-style — the
// workload of Figure 17: the GPU resolves each range's start leaf over
// the I-segment replica (steps 1-3 of Section 5.4), then the CPU scans
// forward through the host-resident leaf chain collecting `count` pairs
// per query. Results are returned per query in submission order.
func (t *Tree[K]) RangeQueryBatch(starts []K, count int) ([][]keys.Pair[K], RangeStats, error) {
	n := len(starts)
	out := make([][]keys.Pair[K], n)
	var stats RangeStats
	stats.Queries = n
	if n == 0 {
		return out, stats, nil
	}
	if t.replicaStale.Load() {
		return nil, stats, fault.ErrReplicaStale
	}
	m := t.opt.BucketSize
	sc, err := t.acquireScratch()
	if err != nil {
		return nil, stats, err
	}
	defer t.releaseScratch(sc)

	tl := sc.tl
	tl.Reset()
	ppl := keys.PerLine[K]() / 2
	leafLines := float64((count + ppl - 1) / ppl)
	cpu := t.opt.Machine.CPU
	buckets := 0
	for start := 0; start < n; start += m {
		end := start + m
		if end > n {
			end = n
		}
		bq := starts[start:end]
		bn := len(bq)
		stream := buckets
		if idx := buckets - 2; idx >= 0 {
			tl.AdvanceStream(stream, sc.d2h[idx%scratchRing])
		}
		d1, err := t.copyQueriesToDevice(sc.qbuf, bq)
		if err != nil {
			return nil, stats, err
		}
		tl.Schedule(stream, vclock.ResPCIeH2D, "H2D", d1)
		d2, err := t.runKernel(sc.qbuf, sc.rbuf, bn)
		if err != nil {
			return nil, stats, err
		}
		tl.Schedule(stream, vclock.ResGPU, "kernel", d2)
		d3 := t.dev.CopyDuration(int64(bn) * t.resultSize())
		_, dEnd := tl.Schedule(stream, vclock.ResPCIeD2H, "D2H", d3)
		sc.d2h[buckets%scratchRing] = dEnd

		// CPU stage: scan `count` pairs from each resolved start leaf.
		res := sc.res[:2*bn]
		if _, err := sc.rbuf.CopyToHost(res); err != nil {
			return nil, stats, err
		}
		for i := 0; i < bn; i++ {
			out[start+i] = t.scanFrom(res, bn, i, bq[i], count)
			stats.Matches += len(out[start+i])
		}
		p := t.leafProfile()
		scan := model.MissProfile{Hit: leafLines * p.Hit, Miss: leafLines * p.Miss}
		mem := (vclock.Duration(scan.Miss)*cpu.LatMem + vclock.Duration(scan.Hit)*cpu.LatLLC) /
			vclock.Duration(cpu.MLPMax)
		pq := cpu.CostHybridSched + vclock.Duration(leafLines*float64(model.AlgoCost(cpu, t.opt.NodeSearch))) + mem
		d4 := model.BatchDuration(cpu, bn, pq, scan.MissBytes(), t.opt.Threads)
		tl.Schedule(stream, vclock.ResCPU, "scan", d4)
		buckets++
	}
	stats.SimTime = tl.Now()
	if stats.SimTime > 0 {
		stats.ThroughputQPS = float64(n) / stats.SimTime.Seconds()
	}
	return out, stats, nil
}

// scanFrom collects up to count pairs starting at the GPU-resolved leaf
// reference for query i — the I-segment is not consulted again.
func (t *Tree[K]) scanFrom(res []int32, bn, i int, start K, count int) []keys.Pair[K] {
	if t.impl != nil {
		return t.impl.RangeFromLine(int(res[i]), start, count, nil)
	}
	return t.reg.RangeFromRef(res[i], int(res[bn+i]), start, count, nil)
}
