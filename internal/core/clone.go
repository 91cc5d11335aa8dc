package core

import (
	"fmt"

	"hbtree/internal/keys"
)

// Snapshot support for the serving layer's RCU-style reader/writer
// split (DESIGN §5): a batch update clones the published tree, mutates
// the clone, and atomically swaps it in, so in-flight readers keep
// traversing the old version untouched. Clones share the simulated GPU
// device — the deployment reality the paper envisions, where one card
// hosts every index — but carry their own device-resident I-segment
// replica, so the clone's re-mirroring shows up in the device H2D
// counters exactly like the asynchronous I-segment shipping of §5.6.
// That replica is a version of the clone's host tree, charged as a full
// mirror: it reads the inner memory the clone shares with t until
// either writes it, and a write copies what it touches first.

// Clone returns an independent copy of the tree on the same simulated
// device: updates applied to one tree are invisible to the other. A
// regular copy has its own metadata, leaf records and page tables and
// shares the leaf data, the last-level pages and the upper pool
// copy-on-write (cpubtree.RegularTree.Clone): it takes over t's append
// right and copies a leaf, a page or the upper pool only when it
// rewrites one. An implicit copy shares both host segments, which no
// update writes. Either has its own device-resident replica of its own
// host I-segment. Clone counts as a read of t: it may run concurrently
// with lookups but not with mutations of t.
func (t *Tree[K]) Clone() (*Tree[K], error) {
	c := &Tree[K]{
		opt:              t.opt,
		dev:              t.dev,
		balanced:         t.balanced,
		lbD:              t.lbD,
		lbR:              t.lbR,
		leafMissOverride: t.leafMissOverride,
		buildStats:       t.buildStats,
		scratch:          make(chan *searchScratch[K], scratchPoolCap),
		implProfile:      t.implProfile,
		implSearches:     t.implSearches,
	}
	if t.impl != nil {
		c.impl = t.impl.Clone()
	}
	if t.reg != nil {
		c.reg = t.reg.Clone()
	}
	if err := c.mirrorISegment(); err != nil {
		return nil, err
	}
	return c, nil
}

// Rebuilt builds a fresh implicit tree from the sorted pairs on t's
// device, carrying over t's configuration (including discovered
// load-balance parameters), and returns it with rebuild-shaped stats.
// It is the snapshot counterpart of Rebuild: t itself is not modified,
// so readers of t proceed undisturbed while the replacement is
// constructed. An implicit build may keep pairs as its leaf segment; do
// not modify them afterwards.
func (t *Tree[K]) Rebuilt(pairs []keys.Pair[K]) (*Tree[K], UpdateStats, error) {
	if t.opt.Variant != Implicit {
		return nil, UpdateStats{}, fmt.Errorf("core: Rebuilt applies to the implicit variant; use Clone+Update")
	}
	opt := t.opt
	opt.Device = t.dev
	nt, err := Build(pairs, opt)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	nt.balanced, nt.lbD, nt.lbR = t.balanced, t.lbD, t.lbR
	nt.leafMissOverride = t.leafMissOverride
	stats := UpdateStats{
		Ops:       len(pairs),
		Applied:   len(pairs),
		LSegBuild: nt.buildStats.LSegBuild,
		ISegBuild: nt.buildStats.ISegBuild,
		SyncTime:  nt.buildStats.ISegXfer,
	}
	return nt, stats, nil
}
