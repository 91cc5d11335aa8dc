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

// UpdateStats reports one batch update's outcome and virtual cost. Ops
// is the caller's op count; every other field is computed on the
// batch's normal form (see normalBatch), so a batch that names a key
// twice counts that key once.
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
// three phase costs of Figure 15. An implicit build may keep pairs as
// its leaf segment; do not modify them afterwards.
func (t *Tree[K]) Rebuild(pairs []keys.Pair[K]) (UpdateStats, error) {
	if t.opt.Variant != Implicit {
		return UpdateStats{}, fmt.Errorf("core: Rebuild applies to the implicit variant; use Update")
	}
	if err := t.impl.Rebuild(pairs); err != nil {
		return UpdateStats{}, err
	}
	t.cacheLookupProfile()
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

// normalBatch returns ops in the one form every regular-tree write
// method applies: sorted by key, one op per key — the batch's last op
// for that key — and no PUT of the reserved MAX key (a DEL of MAX stays
// and counts as not found). A batch already in that form is returned
// as is; any other is normalised into a fresh slice, so the caller's
// ops are never reordered. A write batch's final state depends only on
// each key's last op, so every method agrees on it by construction.
func normalBatch[K keys.Key](ops []cpubtree.Op[K]) []cpubtree.Op[K] {
	maxK := keys.Max[K]()
	inForm := len(ops) == 0 || ops[len(ops)-1].Key != maxK || ops[len(ops)-1].Delete
	for i := 1; inForm && i < len(ops); i++ {
		inForm = ops[i-1].Key < ops[i].Key
	}
	if inForm {
		return ops
	}
	out := slices.Clone(ops)
	slices.SortStableFunc(out, func(a, b cpubtree.Op[K]) int { return cmp.Compare(a.Key, b.Key) })
	n := 0
	for i, op := range out {
		if i+1 < len(out) && out[i+1].Key == op.Key || op.Key == maxK && !op.Delete {
			continue
		}
		out[n] = op
		n++
	}
	return out[:n]
}

// Update executes a batch of updates on the regular HB+-tree with the
// chosen method, keeping the device-resident I-segment replica exact.
// The method applies the batch's normal form (normalBatch), so every
// method leaves the same contents; the stats count that form, except
// Ops, which is the caller's op count.
func (t *Tree[K]) Update(ops []cpubtree.Op[K], method UpdateMethod) (UpdateStats, error) {
	if t.opt.Variant != Regular {
		return UpdateStats{}, fmt.Errorf("core: Update applies to the regular variant; use Rebuild")
	}
	var stats UpdateStats
	stats.Ops = len(ops)
	ops = normalBatch(ops)
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
	lookup := cpuPerQuery(cpu, searches, p, 0, 1, lockOverhead)
	// Shifting half a big leaf on average (leafCap/2 pairs), at the
	// single-thread copy bandwidth (~1/4 of the socket's).
	shiftBytes := float64(t.reg.LeafCapacity()) / 2 * float64(2*keys.Size[K]())
	shift := vclock.Duration(shiftBytes / (cpu.MemBWBytes / 4) * 1e9)
	return lookup + shift
}

// syncDirtyNodes replays every modified last-level node image (and, on
// structural changes, the whole upper pool) to the device replica,
// returning the synchronizing thread's busy time. A structural change
// is charged as a full mirror. A node sync points the replica at the
// host's current page of the node (gpusim.PagedBuffer.SyncNodes), which
// the host then copies before its next write to it. A kernel never
// reads a node between its host write and its sync: the host writes
// only pages the replica does not hold, and every method syncs before
// it returns the tree to its readers.
func (t *Tree[K]) syncDirtyNodes(res cpubtree.BatchResult) (vclock.Duration, int, error) {
	upper, last, root, height, nodeSlots, _ := t.reg.InnerArrays()
	dirty := len(res.DirtyLast)

	// Pool growth (splits) forces re-allocation of the device buffers,
	// and so does a replica shared with delta forks (ApplyDelta): a node
	// sync repoints the page table they read, so this tree detaches
	// into a replica of its own and pays a full mirror.
	if res.UpperChanged || t.lastBuf.Len() != poolLen(last) || t.upperBuf.Len() != len(upper) ||
		(t.bufShare != nil && t.bufShare.refs.Load() > 1) {
		if err := t.remirror(); err != nil {
			return 0, dirty, err
		}
		return t.buildStats.ISegXfer, dirty, nil
	}

	// Each enqueued node copy pays the asynchronous initiation cost
	// plus its bytes (Section 5.6: bounded by initiation latency).
	nodeBytes := int64(nodeSlots) * int64(keys.Size[K]())
	perNode := t.dev.Config().TInitAsync + vclock.Duration(float64(nodeBytes)/t.dev.Config().PCIeBWBytes*1e9)
	synced, err := t.lastBuf.SyncNodes(last, res.DirtyLast, nodeSlots)
	var total vclock.Duration
	for range synced { // node by node, as the sync thread pays them
		total += perNode
	}
	if err != nil {
		// A faulted node copy leaves the replica on its pre-batch pages;
		// degrade to one full mirror — the async method's transfer —
		// before giving up and going stale.
		if merr := t.remirror(); merr != nil {
			return 0, dirty, err
		}
		return total + t.buildStats.ISegXfer, dirty, nil
	}
	t.reg.ShareInner()
	t.regDesc.Root = root
	t.regDesc.RootInUpper = height >= 2
	t.regDesc.Height = height
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
	searchCost := cpuPerQuery(cpu, searches, p, 0, 1, lockOverhead)
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
	if t.impl != nil {
		inner, _, _, _ := t.impl.InnerArray()
		return samePages("I-segment", [][]K{inner}, t.isegBuf.Pages())
	}
	upper, last, _, _, _, _ := t.reg.InnerArrays()
	if t.upperBuf.Len() != len(upper) || t.lastBuf.Len() != poolLen(last) {
		return fmt.Errorf("core: replica pool sizes diverge: %d/%d vs %d/%d",
			t.upperBuf.Len(), t.lastBuf.Len(), len(upper), poolLen(last))
	}
	if err := samePages("upper", [][]K{upper}, t.upperBuf.Pages()); err != nil {
		return err
	}
	return samePages("last", last, t.lastBuf.Pages())
}

// samePages returns an error naming the first element at which the
// replica pages dev differ from the host pages host.
func samePages[K keys.Key](what string, host, dev [][]K) error {
	if len(dev) != len(host) {
		return fmt.Errorf("core: %s replica has %d pages, host %d", what, len(dev), len(host))
	}
	off := 0
	for p, pg := range host {
		if len(dev[p]) != len(pg) {
			return fmt.Errorf("core: %s replica page %d holds %d elements, host %d", what, p, len(dev[p]), len(pg))
		}
		for i := range pg {
			if dev[p][i] != pg[i] {
				return fmt.Errorf("core: %s replica diverges at element %d: %v != %v", what, off+i, dev[p][i], pg[i])
			}
		}
		off += len(pg)
	}
	return nil
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
// It applies the batch's normal form (normalBatch): key order makes each
// leaf's group contiguous, because the big leaves partition the key
// space, and splits triggered inside a group are resolved locally, so
// the pre-update leaf resolution stays valid. As for Update, Ops is the
// caller's op count and the other stats count the normal form.
func (t *Tree[K]) UpdateGPUAssisted(ops []cpubtree.Op[K]) (UpdateStats, error) {
	if t.opt.Variant != Regular {
		return UpdateStats{}, fmt.Errorf("core: UpdateGPUAssisted applies to the regular variant")
	}
	var stats UpdateStats
	stats.Ops = len(ops)
	ops = normalBatch(ops)
	if len(ops) == 0 {
		return stats, nil
	}

	// Step 1-3 of the hybrid search, applied to the update keys: H2D,
	// GPU traversal, D2H of the target leaves.
	n := len(ops)
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
	for i, op := range ops {
		keysOnly[i] = op.Key
	}
	d1, err := qbuf.CopyFromHost(keysOnly)
	if err != nil {
		return stats, err
	}
	out := rbuf.Data()
	// A kernel fault here precedes any host mutation: the batch simply
	// fails and may be retried (or applied via the CPU-only methods).
	if _, err := gpusim.RegularSearchKernel(t.dev, t.upperBuf.Pages()[0], t.lastBuf.Pages(), t.regDesc,
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
		res := t.reg.ApplyOpsToLeaf(leaves[start], ops[start:end])
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
		vclock.Duration(float64(model.AlgoCost(cpu, nodeSearch)))
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
