package core

import (
	"fmt"

	"hbtree/internal/fault"
	"hbtree/internal/gpusim"
	"hbtree/internal/vclock"
)

// This file implements the load-balancing scheme of Section 5.5. On
// machines whose GPU-to-CPU power ratio is low (the paper's M2), sending
// every inner level to the GPU makes the GPU the bottleneck; instead the
// CPU pre-walks the top D levels — cheap, because the top of the tree is
// cache-resident — and hands (query, intermediate node) pairs to the
// GPU. For finer granularity a fraction R of each bucket stops at depth
// D while the rest stops at D+1, giving the effective CPU share
// depth = D + (1 - R). D and R are found by the discovery algorithm
// (Algorithm 1): a linear scan over D followed by a five-step binary
// refinement of R.

// Balance holds the load-balance parameters.
type Balance struct {
	D int     // inner levels pre-walked by the CPU
	R float64 // fraction of each bucket stopping at depth D (rest at D+1)
}

// depth returns the effective average CPU depth D + (1-R).
func (b Balance) depth() float64 { return float64(b.D) + (1 - b.R) }

// SetBalance fixes the load-balance parameters explicitly, bypassing
// discovery.
func (t *Tree[K]) SetBalance(b Balance) error {
	if b.D < 0 || b.D > t.maxD() || b.R < 0 || b.R > 1 {
		return fmt.Errorf("core: balance D=%d R=%.3f out of range (max D %d)", b.D, b.R, t.maxD())
	}
	t.lbD, t.lbR = b.D, b.R
	t.balanced = true
	return nil
}

// Balance returns the current parameters and whether they are set.
func (t *Tree[K]) Balance() (Balance, bool) {
	return Balance{D: t.lbD, R: t.lbR}, t.balanced
}

// maxD is the largest CPU pre-walk depth that still leaves the GPU at
// least one inner level for every query.
func (t *Tree[K]) maxD() int {
	h := t.Height()
	if h <= 1 {
		return 0
	}
	return h - 2
}

// sample models one bucket at the given parameters and returns the GPU
// and CPU busy times — the getSample probe of Algorithm 1 (which "runs
// the program for given D and R").
func (t *Tree[K]) sample(b Balance) (gpuTime, cpuTime vclock.Duration) {
	m := t.opt.BucketSize
	h := t.Height()
	cpuDepth := b.depth()
	gpuLevels := float64(h) - cpuDepth
	gpuTime = t.gpuStageDurationF(m, gpuLevels)
	cpuTime = t.cpuTopStageDuration(m, cpuDepth)
	return gpuTime, cpuTime
}

// gpuStageDurationF is gpuStageDuration with a fractional level count,
// as produced by the R split.
func (t *Tree[K]) gpuStageDurationF(n int, levels float64) vclock.Duration {
	if levels <= 0 {
		return 0
	}
	if t.opt.Variant == Regular {
		return t.dev.KernelDuration(n, levels, 3, t.warpThreads(), regularKernelDivergence)
	}
	return t.dev.KernelDuration(n, levels, 1, t.warpThreads(), 1)
}

// ensureBalanced resolves the load-balance parameters exactly once
// under balanceMu, so concurrent balanced lookups never race on the
// first-use discovery: the winner runs Algorithm 1, everyone else
// blocks until the parameters are published and then reads them through
// the mutex's happens-before edge.
func (t *Tree[K]) ensureBalanced() {
	t.balanceMu.Lock()
	if !t.balanced {
		t.Discover()
	}
	t.balanceMu.Unlock()
}

// Discover runs Algorithm 1: starting from D=0, R=1 (maximum GPU load),
// it increases D — the coarse parameter — while the GPU remains the
// bottleneck, then refines the fine parameter R by binary search for
// steps 2..5, moving work towards whichever processor is idle. When the
// D scan overshoots (the CPU becomes the bottleneck at depth D),
// refinement brackets the crossover inside [D-1, D], since R
// interpolates the effective depth between D and D+1. The found
// parameters are stored on the tree and returned.
func (t *Tree[K]) Discover() Balance {
	b := Balance{D: 0, R: 1}
	gpuT, cpuT := t.sample(b)
	if gpuT <= cpuT {
		// The CPU is the bottleneck even with the whole inner traversal
		// on the GPU: keep the maximum GPU share.
		t.lbD, t.lbR = b.D, b.R
		t.balanced = true
		return b
	}
	for gpuT > cpuT && b.D < t.maxD() {
		b.D++
		gpuT, cpuT = t.sample(b)
	}
	if gpuT <= cpuT && b.D > 0 {
		// Overshot: the optimum lies between depth D-1 and D.
		b.D--
	}
	b.R = 0.5
	for step := 2; step <= 5; step++ {
		gpuT, cpuT = t.sample(b)
		if gpuT > cpuT {
			// GPU still the bottleneck: shift work to the CPU (deeper
			// effective depth D + (1-R), i.e. smaller R).
			b.R -= 1 / float64(int(1)<<step)
		} else {
			b.R += 1 / float64(int(1)<<step)
		}
	}
	t.lbD, t.lbR = b.D, b.R
	t.balanced = true
	return b
}

// lookupBatchBalanced is the load-balanced heterogeneous search: per
// bucket, the CPU pre-walks D levels for the first R*M queries and D+1
// levels for the rest, the GPU resumes from the intermediate nodes, and
// the CPU finishes in the leaves. Three buckets run concurrently so the
// GPU can schedule the next kernel while the current one executes
// (Section 5.5). Results land in the caller's slices, which hold
// exactly len(queries) elements.
func (t *Tree[K]) lookupBatchBalanced(queries []K, values []K, found []bool) (stats SearchStats, err error) {
	t.ensureBalanced()
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

	qbuf, err := gpusim.Malloc[K](t.dev, m)
	if err != nil {
		return stats, fmt.Errorf("core: allocating query buffer: %w", err)
	}
	defer qbuf.Free()
	sbuf, err := gpusim.Malloc[int32](t.dev, m) // intermediate start nodes
	if err != nil {
		return stats, fmt.Errorf("core: allocating start buffer: %w", err)
	}
	defer sbuf.Free()
	rbuf, err := gpusim.Malloc[int32](t.dev, 2*m)
	if err != nil {
		return stats, fmt.Errorf("core: allocating result buffer: %w", err)
	}
	defer rbuf.Free()

	nbuf := t.numBuffers()
	tl := vclock.NewTimeline()
	if t.traceOn.Load() {
		tl.SetTrace(true)
		t.setLastTrace(tl)
	}
	d2hEnd := make(map[int]vclock.Duration)
	preStart := make(map[int]vclock.Duration)
	var lats []vclock.Duration
	res := make([]int32, 2*m) // D2H staging of the leaf references
	buckets := 0
	cpuDepth := Balance{D: t.lbD, R: t.lbR}.depth()

	// The leaf stage of bucket i is scheduled after the pre-walk of
	// bucket i+1: while the GPU traverses bucket i's inner levels the
	// CPU is already pre-walking the next bucket (the overlap structure
	// of Section 5.5). pendingLeaf carries the deferred stage.
	type leafStage struct {
		stream int
		dur    vclock.Duration
	}
	var pending *leafStage
	scheduleLeaf := func(ls leafStage) {
		_, cEnd := tl.Schedule(ls.stream, vclock.ResCPU, "leaf", ls.dur)
		lats = append(lats, cEnd-preStart[ls.stream])
	}

	for start := 0; start < n; start += m {
		end := start + m
		if end > n {
			end = n
		}
		bq := queries[start:end]
		bn := len(bq)
		rm := int(t.lbR * float64(bn))
		stream := buckets
		if prev, ok := d2hEnd[buckets-nbuf]; ok {
			tl.AdvanceStream(stream, prev)
		}

		// CPU pre-walk of the top levels (step 0 of the balanced plan).
		starts := make([]int32, bn)
		t.preWalk(bq, starts, rm)
		dPre := t.cpuPreStageDuration(bn, cpuDepth)
		ps, _ := tl.Schedule(stream, vclock.ResCPU, "pre-walk", dPre)
		preStart[stream] = ps

		// H2D: queries plus intermediate node indices.
		d1a, err := t.copyQueriesToDevice(qbuf, bq)
		if err != nil {
			return stats, err
		}
		if _, err := sbuf.CopyFromHost(starts); err != nil {
			return stats, err
		}
		d1 := d1a + t.dev.CopyDuration(int64(bn)*4) - t.dev.Config().TInit // one batched transfer, one T_init
		tl.Schedule(stream, vclock.ResPCIeH2D, "H2D", d1)

		// GPU resumes the traversal from the intermediate nodes. With
		// three buckets in flight the successor kernel is pre-submitted
		// while the current one runs, so the launch overhead K_init is
		// scheduled concurrently with execution and leaves the GPU
		// station (Section 5.5's bucket-handling change).
		d2, err := t.runKernelFrom(qbuf, sbuf, rbuf, bn, rm)
		if err != nil {
			return stats, err
		}
		if d2 > t.dev.Config().KInit {
			d2 -= t.dev.Config().KInit
		}
		tl.Schedule(stream, vclock.ResGPU, "kernel", d2)

		// D2H of the leaf references.
		d3 := t.dev.CopyDuration(int64(bn) * t.resultSize())
		_, dEnd := tl.Schedule(stream, vclock.ResPCIeD2H, "D2H", d3)
		d2hEnd[buckets] = dEnd

		// CPU leaf search: functionally completed now (the staging
		// buffer is reused next bucket), temporally deferred behind the
		// next bucket's pre-walk.
		d4 := t.cpuLeafStageDuration(bn)
		if err := t.finishLeaves(rbuf, bq, values[start:end], found[start:end], res, nil); err != nil {
			return stats, err
		}
		if pending != nil {
			scheduleLeaf(*pending)
		}
		pending = &leafStage{stream: stream, dur: d4}
		buckets++
	}
	if pending != nil {
		scheduleLeaf(*pending)
	}
	stats.Buckets = buckets
	stats.setLatencies(lats)
	stats.finalize(tl)
	return stats, nil
}

// preWalk computes the intermediate node per query: depth D for the
// first rm queries, depth D+1 for the rest.
func (t *Tree[K]) preWalk(bq []K, starts []int32, rm int) {
	if t.impl != nil {
		for i, q := range bq {
			d := t.lbD
			if i >= rm {
				d++
			}
			starts[i] = int32(t.impl.WalkToLevel(q, d))
		}
		return
	}
	h := t.reg.Height()
	for i, q := range bq {
		d := t.lbD
		if i >= rm {
			d++
		}
		stop := h - d
		if stop < 1 {
			stop = 1
		}
		starts[i] = t.reg.WalkToHeight(q, stop)
	}
}

// runKernelFrom launches the resumed traversal: one kernel invocation
// per depth class, matching the two-part bucket of Section 5.5. An
// injected kernel fault on either invocation fails the whole bucket.
func (t *Tree[K]) runKernelFrom(qbuf *gpusim.Buffer[K], sbuf, rbuf *gpusim.Buffer[int32], bn, rm int) (vclock.Duration, error) {
	qs := qbuf.Data()[:bn]
	ss := sbuf.Data()[:bn]
	h := t.Height()
	levelsA := float64(h - t.lbD)
	levelsB := float64(h - t.lbD - 1)
	frac := float64(rm) / float64(bn)
	avgLevels := frac*levelsA + (1-frac)*levelsB

	if t.opt.Variant == Implicit {
		out := rbuf.Data()
		if rm > 0 {
			if _, err := gpusim.ImplicitSearchKernel(t.dev, t.isegBuf.Pages()[0], t.implDesc, qs[:rm], out[:rm], t.lbD, ss[:rm]); err != nil {
				return 0, err
			}
		}
		if bn > rm {
			if _, err := gpusim.ImplicitSearchKernel(t.dev, t.isegBuf.Pages()[0], t.implDesc, qs[rm:bn], out[rm:bn], t.lbD+1, ss[rm:bn]); err != nil {
				return 0, err
			}
		}
		return t.gpuStageDurationF(bn, avgLevels), nil
	}
	out := rbuf.Data()
	hA := h - t.lbD
	hB := h - t.lbD - 1
	if hB < 1 {
		hB = 1
	}
	if rm > 0 {
		if _, err := gpusim.RegularSearchKernel(t.dev, t.upperBuf.Pages()[0], t.lastBuf.Pages(), t.regDesc,
			qs[:rm], out[:rm], out[bn:bn+rm], hA, ss[:rm]); err != nil {
			return 0, err
		}
	}
	if bn > rm {
		if _, err := gpusim.RegularSearchKernel(t.dev, t.upperBuf.Pages()[0], t.lastBuf.Pages(), t.regDesc,
			qs[rm:bn], out[rm:bn], out[bn+rm:2*bn], hB, ss[rm:bn]); err != nil {
			return 0, err
		}
	}
	return t.gpuStageDurationF(bn, avgLevels), nil
}

// cpuPreStageDuration models the CPU pre-walk of the top levels alone
// (the leaf stage is charged separately).
func (t *Tree[K]) cpuPreStageDuration(n int, depth float64) vclock.Duration {
	cpu := t.opt.Machine.CPU
	top, searches := t.topLevelsProfile(depth)
	pq := cpuPerQuery(cpu, searches, top, 0, t.opt.PipelineDepth, 0)
	// The common dispatch overhead is charged once, in the leaf stage.
	pq -= cpu.CostQuerycommon
	if pq < 0 {
		pq = 0
	}
	return cpuBatchDuration(cpu, n, pq, top.Miss*float64(64), t.opt.Threads)
}

// SampleBalance exposes the discovery probe (the GPU and CPU bucket
// times at the given parameters) for benchmarks and tests.
func (t *Tree[K]) SampleBalance(b Balance) (gpuTime, cpuTime vclock.Duration) {
	return t.sample(b)
}
