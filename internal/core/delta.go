package core

import (
	"hbtree/internal/cpubtree"
	"hbtree/internal/vclock"
)

// In-place batch updates under epochs (DESIGN §10). A write batch whose
// per-leaf footprint fits the gapped leaves' slack slots does not need
// the clone-and-swap path at all: ApplyDelta forks the tree — sharing
// every host pool and, crucially, the device-resident I-segment replica,
// and copying only the leaf-record pages the batch writes — and appends
// the batch into leaf gaps the parent epoch never reads. Readers pinned
// to older epochs keep seeing their exact slot images (publication is
// the per-leaf delta count on the fork's own record pages; no slot live
// in an older epoch is ever reused), and the device image needs zero
// transfer because the inner pools are byte-identical across the chain.

// ApplyDelta attempts to apply ops as an in-place gapped-leaf batch,
// returning a shared-pool fork that serves the post-batch epoch. It
// reports ok=false — leaving t and plan reusable — when the batch does
// not qualify: non-regular variant, or some touched leaf would
// overflow its gap capacity or be emptied (the structural cases that
// need the clone path). plan is caller-owned scratch so steady-state
// planning allocates nothing. Like Update, it applies the batch's
// normal form (normalBatch) and counts it in the stats, except Ops.
//
// The fork takes over t's append right on the shared leaves (a second
// fork of t copies each leaf it appends to), shares t's inner pools and
// must never receive structural mutations (Update, MixedBatch) —
// Clone() it first. Close the fork like any tree: the shared device
// buffers are refcounted and freed with the chain's last member.
func (t *Tree[K]) ApplyDelta(ops []cpubtree.Op[K], plan *cpubtree.DeltaPlan[K]) (*Tree[K], UpdateStats, bool) {
	if t.opt.Variant != Regular || len(ops) == 0 {
		return nil, UpdateStats{}, false
	}
	nops := len(ops)
	ops = normalBatch(ops)
	if !t.reg.PlanDelta(ops, plan) {
		return nil, UpdateStats{}, false
	}
	nt := &Tree[K]{
		opt:              t.opt,
		dev:              t.dev,
		upperBuf:         t.upperBuf,
		lastBuf:          t.lastBuf,
		bufShare:         t.bufShare,
		regDesc:          t.regDesc,
		balanced:         t.balanced,
		lbD:              t.lbD,
		lbR:              t.lbR,
		leafMissOverride: t.leafMissOverride,
		buildStats:       t.buildStats,
		scratch:          make(chan *searchScratch[K], scratchPoolCap),
		deltaCost:        t.deltaCost,
	}
	if nt.deltaCost == 0 {
		nt.deltaCost = t.deltaPerOpCost()
	}
	nt.replicaStale.Store(t.replicaStale.Load())
	if nt.bufShare != nil {
		nt.bufShare.refs.Add(1)
	}
	nt.reg = t.reg.ForkDelta()
	res := nt.reg.ApplyPlannedDelta(ops, plan)

	stats := UpdateStats{
		Ops:        nops,
		Applied:    res.Applied,
		NotFound:   res.NotFound,
		DirtyNodes: len(res.DirtyLast),
		InPlace:    true,
		// The whole batch is lookup-bound: each op descends to its leaf
		// and writes one gap slot — no packed-leaf shifting, no
		// I-segment transfer (SyncTime stays zero).
		HostTime: vclock.Duration(len(ops)) * nt.deltaCost,
	}
	return nt, stats, true
}

// deltaPerOpCost models one gapped-leaf update: the serial lookup of
// updatePerOpCost without the packed-leaf shift term (a gap append
// touches one pair slot, not half a leaf).
func (t *Tree[K]) deltaPerOpCost() vclock.Duration {
	cpu := t.opt.Machine.CPU
	p, searches := t.lookupProfile()
	return cpuPerQuery(cpu, searches, p, 0, 1, lockOverhead)
}

// CloneFootprint reports the host copy cost of cloning this tree — the
// upper pool, the metadata, the leaf records, the page tables and the
// leaves Clone compacts with their last-level pages, never the shared
// leaf data or an unwritten page (cpubtree.RegularTree.CloneFootprint) —
// the amplification ApplyDelta avoids. Zero for the implicit variant
// (whose write path is whole-tree rebuild, not clone-and-swap).
func (t *Tree[K]) CloneFootprint() (nodes int, bytes int64) {
	if t.reg == nil {
		return 0, 0
	}
	return t.reg.CloneFootprint()
}

// DeltaLeaves reports how many big leaves currently carry un-compacted
// delta entries. Clone compacts only the delta regions at least half
// full, so a clone may carry the rest.
func (t *Tree[K]) DeltaLeaves() int {
	if t.reg == nil {
		return 0
	}
	return t.reg.DeltaLeaves()
}
