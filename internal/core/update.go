package core

import (
	"cmp"
	"fmt"
	"slices"

	"hbtree/internal/cpubtree"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/model"
	"hbtree/internal/vclock"
)

// This file implements the batch-update machinery of Section 5.6.
//
// Implicit variant: individual updates are impossible; the whole tree is
// rebuilt in host memory (L-segment, then I-segment) and the fresh
// I-segment is transferred to GPU memory. UpdateStats breaks the cost
// into those three phases (Figure 15).
//
// Regular variant: two methods keep the GPU replica of the I-segment in
// sync.
//
//   - Asynchronous: updates execute in host memory first — in parallel,
//     groups of 16K, per-node locks, structural leftovers on one thread —
//     then the entire I-segment is re-transferred. Efficient for big
//     batches, where one large transfer beats many small ones.
//   - Synchronized: a modifying thread executes updates one by one and
//     enqueues each modified inner node; a synchronizing thread replays
//     the node images to GPU memory concurrently. Bounded by per-copy
//     initiation latency, it wins for small batches (Figure 14's
//     crossover near 64K-128K).

// UpdateMethod selects the regular HB+-tree synchronisation method.
type UpdateMethod int

// The update methods evaluated in Figures 13 and 14.
const (
	// AsyncParallel: multi-threaded host update, then full I-segment
	// transfer.
	AsyncParallel UpdateMethod = iota
	// AsyncSingle: single-threaded host update, then full I-segment
	// transfer (the paper's single-threaded asynchronous baseline).
	AsyncSingle
	// Synchronized: modifying thread + synchronizing thread with
	// per-node transfers.
	Synchronized
	// SynchronizedMT: synchronized with multiple modifying threads; the
	// paper found parallelism barely helps ("bounded by the
	// communication initialization latency"), modelled as a 1.3x gain.
	SynchronizedMT
)

// String names the update method.
func (m UpdateMethod) String() string {
	switch m {
	case AsyncParallel:
		return "async-multi"
	case AsyncSingle:
		return "async-single"
	case Synchronized:
		return "sync"
	case SynchronizedMT:
		return "sync-multi"
	}
	return "unknown"
}

// UpdateStats reports one batch update's outcome and virtual cost.
type UpdateStats struct {
	Ops        int
	Applied    int
	NotFound   int
	Structural int

	HostTime vclock.Duration // in-memory update execution
	SyncTime vclock.Duration // I-segment (or per-node) transfer to GPU
	// For implicit rebuilds, the Figure 15 phases:
	LSegBuild vclock.Duration
	ISegBuild vclock.Duration

	DirtyNodes int // last-level nodes re-synchronised (regular, sync method)

	// In-place delta accounting (ApplyDelta vs clone-and-swap).
	InPlace     bool  // batch landed in leaf gaps on a shared-pool fork
	ClonedNodes int   // inner nodes copied when the clone path ran
	ClonedBytes int64 // host bytes copied when the clone path ran
}

// Total returns the end-to-end batch cost.
func (u UpdateStats) Total() vclock.Duration {
	return u.HostTime + u.SyncTime + u.LSegBuild + u.ISegBuild
}

// ThroughputUPS is the update throughput (excluding the I-segment
// transfer, as Figure 13(a) does for the asynchronous methods).
func (u UpdateStats) ThroughputUPS() float64 {
	if u.HostTime <= 0 {
		return 0
	}
	return float64(u.Ops) / u.HostTime.Seconds()
}

// updateMaxSpeedup caps the effective parallelism of the asynchronous
// multi-threaded method: lock contention, shared leaf shifting and the
// serial structural phase limit the gain to about 3x (Figure 13a).
const updateMaxSpeedup = 3.0

// syncMTSpeedup is the modest gain of adding modifying threads to the
// synchronized method, which stays transfer-bound (Section 6.3).
const syncMTSpeedup = 1.3

// Rebuild replaces the implicit HB+-tree's contents with a new sorted
// dataset: both segments are rebuilt in main memory and the I-segment is
// transferred to GPU memory (Section 5.6). The returned stats carry the
// three phase costs of Figure 15.
func (t *Tree[K]) Rebuild(pairs []keys.Pair[K]) (UpdateStats, error) {
	if t.opt.Variant != Implicit {
		return UpdateStats{}, fmt.Errorf("core: Rebuild applies to the implicit variant; use Update")
	}
	if err := t.impl.Rebuild(pairs); err != nil {
		return UpdateStats{}, err
	}
	lseg, iseg := t.modelBuildCost()
	t.buildStats.LSegBuild, t.buildStats.ISegBuild = lseg, iseg
	// The host segments are already rebuilt; a faulted mirror marks the
	// replica stale rather than losing the rebuild.
	if err := t.remirror(); err != nil {
		return UpdateStats{}, err
	}
	return UpdateStats{
		Ops:       len(pairs),
		Applied:   len(pairs),
		LSegBuild: lseg,
		ISegBuild: iseg,
		SyncTime:  t.buildStats.ISegXfer,
	}, nil
}

// Update executes a batch of updates on the regular HB+-tree with the
// chosen method, keeping the device-resident I-segment replica exact.
func (t *Tree[K]) Update(ops []cpubtree.Op[K], method UpdateMethod) (UpdateStats, error) {
	if t.opt.Variant != Regular {
		return UpdateStats{}, fmt.Errorf("core: Update applies to the regular variant; use Rebuild")
	}
	var stats UpdateStats
	stats.Ops = len(ops)
	if len(ops) == 0 {
		return stats, nil
	}

	perOp := t.updatePerOpCost()
	switch method {
	case AsyncParallel, AsyncSingle:
		var res cpubtree.BatchResult
		if method == AsyncParallel {
			res = t.reg.ApplyBatchParallel(ops, 0)
			speedup := float64(t.opt.Threads)
			if speedup > updateMaxSpeedup {
				speedup = updateMaxSpeedup
			}
			stats.HostTime = vclock.Duration(float64(len(ops)) * float64(perOp) / speedup)
		} else {
			res = t.reg.ApplyBatchSequential(ops)
			stats.HostTime = vclock.Duration(len(ops)) * perOp
		}
		stats.Applied = res.Applied
		stats.NotFound = res.NotFound
		stats.Structural = res.Structural
		// "It is more beneficial to transfer the entire I-segment once":
		// re-mirror both pools wholesale. The host batch is already
		// applied, so a faulted transfer marks the replica stale.
		if err := t.remirror(); err != nil {
			return stats, err
		}
		stats.SyncTime = t.buildStats.ISegXfer
		stats.DirtyNodes = len(res.DirtyLast)
	case Synchronized, SynchronizedMT:
		res := t.reg.ApplyBatchSequential(ops)
		stats.Applied = res.Applied
		stats.NotFound = res.NotFound
		stats.Structural = res.Structural
		modify := vclock.Duration(len(ops)) * perOp
		if method == SynchronizedMT {
			modify = vclock.Duration(float64(modify) / syncMTSpeedup)
		}
		sync, dirty, err := t.syncDirtyNodes(res)
		if err != nil {
			return stats, err
		}
		// Modification and synchronisation proceed concurrently on two
		// threads; the slower one bounds the batch (Section 5.6).
		stats.HostTime = vclock.Max(modify, sync)
		stats.SyncTime = 0
		stats.DirtyNodes = dirty
	default:
		return stats, fmt.Errorf("core: unknown update method %d", method)
	}
	return stats, nil
}

// updatePerOpCost models one in-memory update: a full lookup (serial,
// not software-pipelined — updates are dependent operations) plus the
// packed-leaf shift and the node-lock handshake.
func (t *Tree[K]) updatePerOpCost() vclock.Duration {
	cpu := t.opt.Machine.CPU
	p, searches := t.lookupProfile()
	lookup := cpuPerQuery(cpu, t.opt.NodeSearch, searches, p, 0, 1, lockOverhead)
	// Shifting half a big leaf on average (leafCap/2 pairs), at the
	// single-thread copy bandwidth (~1/4 of the socket's).
	shiftBytes := float64(t.reg.LeafCapacity()) / 2 * float64(2*keys.Size[K]())
	shift := vclock.Duration(shiftBytes / (cpu.MemBWBytes / 4) * 1e9)
	return lookup + shift
}

// syncDirtyNodes replays every modified last-level node image (and, on
// structural changes, the whole upper pool) to the device replica,
// returning the synchronizing thread's busy time.
func (t *Tree[K]) syncDirtyNodes(res cpubtree.BatchResult) (vclock.Duration, int, error) {
	upper, last, root, height, nodeSlots, kpl := t.reg.InnerArrays()
	var total vclock.Duration
	dirty := len(res.DirtyLast)

	// Pool growth (splits) forces re-allocation of the device buffers.
	if res.UpperChanged || t.lastBuf.Len() != len(last) || t.upperBuf.Len() != len(upper) {
		if err := t.remirror(); err != nil {
			return 0, dirty, err
		}
		total += t.buildStats.ISegXfer
		return total, dirty, nil
	}

	nodeBytes := int64(nodeSlots) * int64(keys.Size[K]())
	for _, b := range res.DirtyLast {
		off := int(b) * nodeSlots
		if _, err := t.lastBuf.CopyRegionFromHost(off, last[off:off+nodeSlots]); err != nil {
			// A faulted per-node copy leaves the replica partially
			// synchronised; degrade to one full mirror — the async
			// method's transfer — before giving up and going stale.
			if merr := t.remirror(); merr != nil {
				return 0, dirty, err
			}
			total += t.buildStats.ISegXfer
			return total, dirty, nil
		}
		// Each enqueued node copy pays the asynchronous initiation cost
		// plus its bytes (Section 5.6: bounded by initiation latency).
		total += t.dev.Config().TInitAsync +
			vclock.Duration(float64(nodeBytes)/t.dev.Config().PCIeBWBytes*1e9)
	}
	t.regDesc.Root = root
	t.regDesc.RootInUpper = height >= 2
	t.regDesc.Height = height
	_ = kpl
	return total, dirty, nil
}

// MixedBatch executes a concurrent search/update batch on the regular
// HB+-tree using only the CPU, as in the Appendix B.3 evaluation
// (Figure 21), and keeps the GPU replica synchronised with the chosen
// method. Search results are returned alongside the stats.
func (t *Tree[K]) MixedBatch(ops []cpubtree.MixedOp[K], method UpdateMethod) (cpubtree.MixedResult[K], UpdateStats, error) {
	var stats UpdateStats
	if t.opt.Variant != Regular {
		return cpubtree.MixedResult[K]{}, stats, fmt.Errorf("core: MixedBatch applies to the regular variant")
	}
	res := t.reg.MixedBatch(ops, 0)
	stats.Ops = len(ops)
	stats.Structural = res.Structural
	stats.DirtyNodes = len(res.DirtyLast)

	// Cost model: searches pay a locked lookup; updates pay the full
	// update cost. Both run across the worker threads with the update
	// parallelism cap.
	cpu := t.opt.Machine.CPU
	p, searches := t.lookupProfile()
	searchCost := cpuPerQuery(cpu, t.opt.NodeSearch, searches, p, 0, 1, lockOverhead)
	updateCost := t.updatePerOpCost()
	nUpd := 0
	for _, op := range ops {
		if op.Kind != cpubtree.MixedSearch {
			nUpd++
		}
	}
	nSearch := len(ops) - nUpd
	speedup := float64(t.opt.Threads)
	if speedup > 2*updateMaxSpeedup {
		speedup = 2 * updateMaxSpeedup
	}
	host := vclock.Duration((float64(nSearch)*float64(searchCost) + float64(nUpd)*float64(updateCost)) / speedup)

	switch method {
	case Synchronized, SynchronizedMT:
		sync, _, err := t.syncDirtyNodes(cpubtree.BatchResult{DirtyLast: res.DirtyLast, UpperChanged: res.Structural > 0})
		if err != nil {
			return res, stats, err
		}
		stats.HostTime = vclock.Max(host, sync)
	default:
		if err := t.remirror(); err != nil {
			return res, stats, err
		}
		stats.HostTime = host
		stats.SyncTime = t.buildStats.ISegXfer
	}
	return res, stats, nil
}

// VerifyReplica cross-checks the device-resident I-segment replica
// against the host tree, returning an error describing the first
// divergence. Tests and the examples use it as a consistency audit after
// updates.
func (t *Tree[K]) VerifyReplica() error {
	switch t.opt.Variant {
	case Implicit:
		inner, _, _, _ := t.impl.InnerArray()
		dev := t.isegBuf.Data()
		if len(dev) != len(inner) {
			return fmt.Errorf("core: replica length %d != host %d", len(dev), len(inner))
		}
		for i := range inner {
			if dev[i] != inner[i] {
				return fmt.Errorf("core: replica diverges at element %d: %v != %v", i, dev[i], inner[i])
			}
		}
	case Regular:
		upper, last, _, _, _, _ := t.reg.InnerArrays()
		if t.upperBuf.Len() != len(upper) || t.lastBuf.Len() != len(last) {
			return fmt.Errorf("core: replica pool sizes diverge: %d/%d vs %d/%d",
				t.upperBuf.Len(), t.lastBuf.Len(), len(upper), len(last))
		}
		du, dl := t.upperBuf.Data(), t.lastBuf.Data()
		for i := range upper {
			if du[i] != upper[i] {
				return fmt.Errorf("core: upper replica diverges at element %d", i)
			}
		}
		for i := range last {
			if dl[i] != last[i] {
				return fmt.Errorf("core: last replica diverges at element %d", i)
			}
		}
	}
	return nil
}

// SortOps orders update operations by key; the paper's batch updates
// benefit from key-ordered application (fewer random node touches). The
// sort is stable, so operations on one key keep their batch order and
// the last of them wins, as it does when the batch is applied in order.
func SortOps[K keys.Key](ops []cpubtree.Op[K]) {
	slices.SortStableFunc(ops, func(a, b cpubtree.Op[K]) int { return cmp.Compare(a.Key, b.Key) })
}

// UpdateGPUAssisted executes a batch of updates on the regular HB+-tree
// with GPU-side target resolution — the paper's first future-work
// direction (Section 7: "employing GPU cycles in support of parallel
// update query execution"). The update keys are shipped to the GPU,
// whose search kernel resolves every operation's target big leaf against
// the device-resident I-segment; the CPU then applies each leaf's
// operations as a group without re-descending the inner levels, and the
// I-segment is re-mirrored asynchronously.
//
// Operations are applied in key order (groups are contiguous because the
// big leaves partition the key space); splits triggered inside a group
// are resolved locally, so the pre-update leaf resolution stays valid.
func (t *Tree[K]) UpdateGPUAssisted(ops []cpubtree.Op[K]) (UpdateStats, error) {
	if t.opt.Variant != Regular {
		return UpdateStats{}, fmt.Errorf("core: UpdateGPUAssisted applies to the regular variant")
	}
	var stats UpdateStats
	stats.Ops = len(ops)
	if len(ops) == 0 {
		return stats, nil
	}
	sorted := append([]cpubtree.Op[K]{}, ops...)
	SortOps(sorted)

	// Step 1-3 of the hybrid search, applied to the update keys: H2D,
	// GPU traversal, D2H of the target leaves.
	n := len(sorted)
	qbuf, err := gpusim.Malloc[K](t.dev, n)
	if err != nil {
		return stats, fmt.Errorf("core: update key buffer: %w", err)
	}
	defer qbuf.Free()
	rbuf, err := gpusim.Malloc[int32](t.dev, 2*n)
	if err != nil {
		return stats, fmt.Errorf("core: update result buffer: %w", err)
	}
	defer rbuf.Free()
	keysOnly := make([]K, n)
	for i, op := range sorted {
		keysOnly[i] = op.Key
	}
	d1, err := qbuf.CopyFromHost(keysOnly)
	if err != nil {
		return stats, err
	}
	out := rbuf.Data()
	// A kernel fault here precedes any host mutation: the batch simply
	// fails and may be retried (or applied via the CPU-only methods).
	if _, err := gpusim.RegularSearchKernel(t.dev, t.upperBuf.Data(), t.lastBuf.Data(), t.regDesc,
		qbuf.Data()[:n], out[:n], out[n:2*n], 0, nil); err != nil {
		return stats, err
	}
	d2 := t.gpuStageDuration(n, t.regDesc.Height)
	leaves := make([]int32, n)
	if _, err := rbuf.CopyToHost(leaves); err != nil {
		return stats, err
	}
	d3 := t.dev.CopyDuration(int64(n) * 4)
	gpuPhase := d1 + d2 + d3

	// Apply per leaf group; sorted keys make same-leaf runs contiguous.
	for start := 0; start < n; {
		end := start + 1
		for end < n && leaves[end] == leaves[start] {
			end++
		}
		res := t.reg.ApplyOpsToLeaf(leaves[start], sorted[start:end])
		stats.Applied += res.Applied
		stats.NotFound += res.NotFound
		stats.Structural += res.Structural
		stats.DirtyNodes += len(res.DirtyLast)
		start = end
	}

	// Cost model: the CPU phase skips the per-op tree descent — only the
	// leaf shift, lock handshake and group bookkeeping remain.
	cpu := t.opt.Machine.CPU
	shiftBytes := float64(t.reg.LeafCapacity()) / 2 * float64(2*keys.Size[K]())
	perOp := lockOverhead + vclock.Duration(shiftBytes/(cpu.MemBWBytes/4)*1e9) +
		vclock.Duration(float64(model.AlgoCost(cpu, t.opt.NodeSearch)))
	speedup := float64(t.opt.Threads)
	if speedup > updateMaxSpeedup {
		speedup = updateMaxSpeedup
	}
	stats.HostTime = gpuPhase + vclock.Duration(float64(n)*float64(perOp)/speedup)

	if err := t.remirror(); err != nil {
		return stats, err
	}
	stats.SyncTime = t.buildStats.ISegXfer
	return stats, nil
}
