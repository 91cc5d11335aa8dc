package core

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"unsafe"

	"hbtree/internal/cpubtree"
	"hbtree/internal/fault"
	"hbtree/internal/keys"
	"hbtree/internal/vclock"
	"hbtree/internal/workload"
)

// Versions of the regular tree share the last-level pages they did not
// write, on the host and in the device replica (DESIGN §10): a write
// copies the pages of the nodes it dirties, and every version still
// reads exactly its own history.

// pageIDs returns the identity of every page of a paged pool: the
// address of its first element.
func pageIDs[K keys.Key](pages [][]K) []*K {
	ids := make([]*K, len(pages))
	for p, pg := range pages {
		ids[p] = unsafe.SliceData(pg)
	}
	return ids
}

// lastPageIDs returns the page identities of t's host last-level pool
// and of its device replica.
func lastPageIDs[K keys.Key](t *Tree[K]) (host, dev []*K) {
	_, last, _, _, _, _ := t.reg.InnerArrays()
	return pageIDs(last), pageIDs(t.lastBuf.Pages())
}

// checkPagesShared fails unless every page of from that is not in
// written is also a page of got, at the same index, and no page in
// written is.
func checkPagesShared[K keys.Key](t *testing.T, what string, from, got []*K, written ...int) {
	t.Helper()
	w := make(map[int]bool)
	for _, p := range written {
		w[p] = true
	}
	for p := range from {
		if p >= len(got) {
			t.Fatalf("%s: %d pages, the source had %d", what, len(got), len(from))
		}
		if shared := got[p] == from[p]; shared == w[p] {
			t.Fatalf("%s: page %d shared %v, want %v (written %v)", what, p, shared, !w[p], written)
		}
	}
}

// splitOps returns n inserts of absent keys just above pairs[i], which
// all land in pairs[i]'s leaf; enough of them split it.
func splitOps[K keys.Key](pairs []keys.Pair[K], i, n int, v K) []cpubtree.Op[K] {
	ops := make([]cpubtree.Op[K], n)
	for j := range ops {
		ops[j] = cpubtree.Op[K]{Key: pairs[i].Key + K(1+j), Value: v + K(j)}
	}
	return ops
}

// applyTo applies ops, which split a leaf, to c's tree in place with a
// synchronised Update and to its model.
func applyTo[K keys.Key](t *testing.T, c *cowTree[K], ops []cpubtree.Op[K]) {
	t.Helper()
	if st, err := c.tree.Update(ops, Synchronized); err != nil || st.Structural == 0 {
		t.Fatalf("%s: Update: stats %+v, err %v; want a split", c.name, st, err)
	}
	for _, op := range ops {
		if op.Delete {
			delete(c.model, op.Key)
		} else {
			c.model[op.Key] = op.Value
		}
	}
}

// TestClonesShareUnwrittenPages pins page identity: a clone shares
// every last-level page of its source, host and device; a write to the
// clone copies the page of the node it writes, and a split also the
// page the new node lands in; the source's pages never change.
func TestClonesShareUnwrittenPages(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { testClonesShareUnwrittenPages[uint64](t) })
	t.Run("uint32", func(t *testing.T) { testClonesShareUnwrittenPages[uint32](t) })
}

// pagesDataset returns enough pairs for four last-level pages of
// 7/8-full leaves.
func pagesDataset[K keys.Key](seed uint64) []keys.Pair[K] {
	kpl := keys.PerLine[K]()
	return workload.Dataset[K](workload.Uniform, 4*cpubtree.LastPageNodes*kpl*kpl*kpl/2*7/8, seed)
}

// splitCount is how many absent keys split a 7/8-full leaf.
func splitCount[K keys.Key](t *Tree[K]) int { return t.reg.LeafCapacity()/8 + 1 }

func testClonesShareUnwrittenPages[K keys.Key](t *testing.T) {
	pairs := pagesDataset[K](7)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	perLeaf := tr.reg.LeafCapacity() * 7 / 8
	srcHost, srcDev := lastPageIDs(tr)
	if len(srcHost) < 4 {
		t.Fatalf("only %d last-level pages", len(srcHost))
	}

	cl, err := tr.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	host, dev := lastPageIDs(cl)
	checkPagesShared(t, "clone, host", srcHost, host)
	checkPagesShared(t, "clone, device", srcDev, dev)

	// One insert rewrites one last-level node: its page is copied, on
	// the host and in the replica.
	b := 2*cpubtree.LastPageNodes + 5
	op := []cpubtree.Op[K]{{Key: pairs[b*perLeaf+3].Key + 1, Value: 1}}
	if _, err := cl.Update(op, Synchronized); err != nil {
		t.Fatal(err)
	}
	host, dev = lastPageIDs(cl)
	checkPagesShared(t, "written clone, host", srcHost, host, b/cpubtree.LastPageNodes)
	checkPagesShared(t, "written clone, device", srcDev, dev, b/cpubtree.LastPageNodes)

	// A split rewrites the node and adds one after the last.
	c2, err := cl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	clHost, clDev := lastPageIDs(cl)
	_, last, _, _, nodeSlots, _ := cl.reg.InnerArrays()
	n := poolLen(last) / nodeSlots // the new node's index
	s := cpubtree.LastPageNodes + 9
	if st, err := c2.Update(splitOps(pairs, s*perLeaf+3, splitCount(tr), 1), Synchronized); err != nil || st.Structural == 0 {
		t.Fatalf("split: stats %+v, err %v", st, err)
	}
	host, dev = lastPageIDs(c2)
	written := []int{s / cpubtree.LastPageNodes, n / cpubtree.LastPageNodes}
	checkPagesShared(t, "split clone, host", clHost, host, written...)
	checkPagesShared(t, "split clone, device", clDev, dev, written...)

	// The source and the first clone kept their pages.
	host, dev = lastPageIDs(tr)
	checkPagesShared(t, "source, host", srcHost, host)
	checkPagesShared(t, "source, device", srcDev, dev)
	host, dev = lastPageIDs(cl)
	checkPagesShared(t, "first clone after its clone split, host", clHost, host)
	checkPagesShared(t, "first clone after its clone split, device", clDev, dev)
	for _, c := range []*Tree[K]{tr, cl, c2} {
		if err := c.VerifyReplica(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSiblingClonesSplittingOnePageAreIsolated: two clones of one tree
// each split a different node of the same last-level page, so each
// copies that page and appends its new node at the same index; a fork of
// each clone then appends in place. Every tree must read exactly its own
// history, through the CPU path, the device replica and a scan.
func TestSiblingClonesSplittingOnePageAreIsolated(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { testSiblingPageIsolation[uint64](t) })
	t.Run("uint32", func(t *testing.T) { testSiblingPageIsolation[uint32](t) })
}

func testSiblingPageIsolation[K keys.Key](t *testing.T) {
	pairs := pagesDataset[K](11)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
	if err != nil {
		t.Fatal(err)
	}
	perLeaf := tr.reg.LeafCapacity() * 7 / 8
	base := cowTree[K]{name: "base", tree: tr, model: make(map[K]K, len(pairs))}
	for _, p := range pairs {
		base.model[p.Key] = p.Value
	}
	b := cpubtree.LastPageNodes + 4 // b and b+1 share a page
	split := splitCount(tr)
	c1 := cowClone(t, base, "clone 1")
	c2 := cowClone(t, base, "clone 2")
	applyTo(t, &c1, splitOps(pairs, b*perLeaf+5, split, 100))
	applyTo(t, &c2, splitOps(pairs, (b+1)*perLeaf+5, split, 200))
	var probes []K
	for _, ops := range [][]cpubtree.Op[K]{splitOps(pairs, b*perLeaf+5, split, 0), splitOps(pairs, (b+1)*perLeaf+5, split, 0)} {
		for _, op := range ops {
			probes = append(probes, op.Key)
		}
	}
	all := []cowTree[K]{base, c1, c2}
	for _, c := range all {
		checkCowTree(t, c, probes)
	}

	// A fork of each clone appends in place, into a leaf of that page.
	put := func(i int, v K) []cpubtree.Op[K] { return []cpubtree.Op[K]{{Key: pairs[i].Key + 1, Value: v}} }
	f1 := cowApply(t, c1, "fork of clone 1", put((b+2)*perLeaf+7, 300))
	f2 := cowApply(t, c2, "fork of clone 2", put((b+2)*perLeaf+7, 400))
	if !f1.tree.reg.Shared() || !f2.tree.reg.Shared() {
		t.Fatal("a one-key write to a gapped leaf did not fork in place")
	}
	// A clone of a fork splits the other node.
	c3 := cowClone(t, f1, "clone of fork 1")
	applyTo(t, &c3, splitOps(pairs, (b+1)*perLeaf+5, split, 500))
	all = append(all, f1, f2, c3)
	probes = append(probes, pairs[(b+2)*perLeaf+7].Key+1)
	for _, c := range all {
		checkCowTree(t, c, probes)
	}
	if maps.Equal(c1.model, c2.model) {
		t.Fatal("the siblings wrote the same keys")
	}
}

// TestClonePathChargesFullMirror pins the clone path's virtual cost and
// device counters: sharing pages is host bookkeeping, so a clone is
// charged one full I-segment mirror, a structural write another, and an
// in-place node write its node bytes — whatever the replica copies.
func TestClonePathChargesFullMirror(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 13)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	dev := tr.Device()
	fullMirror := func(c *Tree[uint64]) (int64, vclock.Duration) {
		upper, last, _, _, _, _ := c.reg.InnerArrays()
		ub, lb := int64(len(upper))*8, int64(poolLen(last))*8
		return ub + lb, vclock.Duration(dev.CopyDuration(ub) + dev.CopyDuration(lb))
	}
	h2d := func() int64 { return dev.Counters().BytesH2D }

	before := h2d()
	cl, err := tr.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	bytes, xfer := fullMirror(tr)
	if got := h2d() - before; got != bytes {
		t.Fatalf("Clone moved %d H2D bytes, want the full I-segment's %d", got, bytes)
	}
	if got := vclock.Duration(cl.BuildStats().ISegXfer); got != xfer {
		t.Fatalf("Clone's mirror took %v, want the full mirror's %v", got, xfer)
	}

	// One insert into a full leaf splits it: a full mirror, the sync
	// thread's time.
	before = h2d()
	st, err := cl.Update([]cpubtree.Op[uint64]{{Key: pairs[5000].Key + 1, Value: 1}}, Synchronized)
	if err != nil || st.Structural != 1 {
		t.Fatalf("split: stats %+v, err %v", st, err)
	}
	bytes, xfer = fullMirror(cl)
	if got := h2d() - before; got != bytes {
		t.Fatalf("structural sync moved %d H2D bytes, want the full I-segment's %d", got, bytes)
	}
	if vclock.Duration(st.HostTime) < xfer {
		t.Fatalf("structural sync charged %v, below the full mirror's %v", st.HostTime, xfer)
	}

	// An overwrite rewrites one node in place: its bytes only.
	before = h2d()
	st, err = cl.Update([]cpubtree.Op[uint64]{{Key: pairs[9000].Key, Value: 2}}, Synchronized)
	if err != nil || st.Structural != 0 || st.DirtyNodes != 1 {
		t.Fatalf("overwrite: stats %+v, err %v", st, err)
	}
	_, _, _, _, nodeSlots, _ := cl.reg.InnerArrays()
	if got := h2d() - before; got != int64(nodeSlots)*8 {
		t.Fatalf("node sync moved %d H2D bytes, want one node's %d", got, nodeSlots*8)
	}

	// The asynchronous method re-mirrors the whole I-segment: SyncTime
	// is the full mirror's.
	before = h2d()
	st, err = cl.Update([]cpubtree.Op[uint64]{{Key: pairs[12000].Key, Value: 3}}, AsyncParallel)
	if err != nil {
		t.Fatal(err)
	}
	bytes, xfer = fullMirror(cl)
	if got := h2d() - before; got != bytes || vclock.Duration(st.SyncTime) != xfer {
		t.Fatalf("async sync moved %d H2D bytes in %v, want %d in %v", got, st.SyncTime, bytes, xfer)
	}
	for _, c := range []*Tree[uint64]{tr, cl} {
		if err := c.VerifyReplica(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultedSyncKeepsPreBatchPages: the device replica is a version
// of the host tree. A synchronised batch writes two nodes on two pages;
// the first node's sync succeeds, the second's faults, and so does the
// full mirror the sync degrades to. The replica stays on the pre-batch
// pages, all of them, while the host reads the post-batch ones, and the
// stale tree refuses the GPU path. A Resync then points the replica at
// the host's own pages.
func TestFaultedSyncKeepsPreBatchPages(t *testing.T) {
	pairs := pagesDataset[uint64](13)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	perLeaf := tr.reg.LeafCapacity() * 7 / 8
	pre, preDev := lastPageIDs(tr)
	checkPagesShared(t, "mirror", pre, preDev)

	b1, b2 := 2*cpubtree.LastPageNodes+5, 3*cpubtree.LastPageNodes+1
	ops := []cpubtree.Op[uint64]{
		{Key: pairs[b1*perLeaf+3].Key + 1, Value: 1},
		{Key: pairs[b2*perLeaf+3].Key + 1, Value: 2},
	}
	inj := fault.New(fault.Options{})
	inj.ScriptNext(fault.OpH2D, nil, fault.ErrH2D, fault.ErrH2D)
	tr.Device().SetInjector(inj)
	if st, err := tr.Update(ops, Synchronized); !errors.Is(err, fault.ErrH2D) || st.Structural != 0 {
		t.Fatalf("Update: stats %+v, err %v; want an H2D fault and no split", st, err)
	}
	tr.Device().SetInjector(nil)
	if !tr.ReplicaStale() {
		t.Fatal("a faulted sync left the tree fresh")
	}
	host, dev := lastPageIDs(tr)
	checkPagesShared(t, "faulted sync, device", pre, dev)
	checkPagesShared(t, "faulted sync, host", pre, host, b1/cpubtree.LastPageNodes, b2/cpubtree.LastPageNodes)
	if tr.VerifyReplica() == nil {
		t.Fatal("the replica reads the post-batch nodes")
	}
	for _, op := range ops {
		if v, ok := tr.Lookup(op.Key); !ok || v != op.Value {
			t.Fatalf("host Lookup(%d) = (%d, %v), want the batch's write", op.Key, v, ok)
		}
	}
	if _, _, _, err := tr.LookupBatch([]uint64{ops[0].Key}); !errors.Is(err, fault.ErrReplicaStale) {
		t.Fatalf("GPU path on a stale replica: %v, want ErrReplicaStale", err)
	}

	if err := tr.Resync(); err != nil {
		t.Fatal(err)
	}
	host, dev = lastPageIDs(tr)
	checkPagesShared(t, "resynced replica", host, dev)
	upper, _, _, _, _, _ := tr.reg.InnerArrays()
	if unsafe.SliceData(tr.upperBuf.Pages()[0]) != unsafe.SliceData(upper) {
		t.Fatal("the resynced upper replica is not the host's pool")
	}
	vals, fnd, _, err := tr.LookupBatch([]uint64{ops[0].Key, ops[1].Key})
	if err != nil || !fnd[0] || !fnd[1] || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("GPU path after Resync: %v %v %v", vals, fnd, err)
	}
}

// TestHostWriteCopiesReplicaPages: after a mirror and after a node
// sync, the replica reads the host's own pages and upper pool. The
// host's next write to a page, or to the upper pool, copies it first,
// so the replica keeps reading the version it was synced to until the
// write's own sync.
func TestHostWriteCopiesReplicaPages(t *testing.T) {
	pairs := pagesDataset[uint64](17)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	perLeaf := tr.reg.LeafCapacity() * 7 / 8
	b := 2*cpubtree.LastPageNodes + 5
	p := b / cpubtree.LastPageNodes
	put := func(i int, v uint64) []cpubtree.Op[uint64] {
		return []cpubtree.Op[uint64]{{Key: pairs[i].Key + 1, Value: v}}
	}

	// Every method writes the host tree, then syncs: the write alone
	// must not reach the replica.
	for step, n := range []int{b, b + 1} { // after the mirror, then after a node sync
		host, dev := lastPageIDs(tr)
		checkPagesShared(t, "synced replica", host, dev)
		before := slices.Clone(tr.lastBuf.Pages()[p])
		res := tr.reg.ApplyBatchSequential(put(n*perLeaf+3, uint64(step)))
		written, stillDev := lastPageIDs(tr)
		checkPagesShared(t, "host write, device", dev, stillDev)
		checkPagesShared(t, "host write, host", host, written, p)
		if !slices.Equal(tr.lastBuf.Pages()[p], before) || tr.VerifyReplica() == nil {
			t.Fatalf("step %d: the host write reached the replica", step)
		}
		if _, _, err := tr.syncDirtyNodes(res); err != nil {
			t.Fatal(err)
		}
		if err := tr.VerifyReplica(); err != nil {
			t.Fatal(err)
		}
	}

	// A split writes the upper pool: the host copies the pool first.
	upper, _, _, _, _, _ := tr.reg.InnerArrays()
	if unsafe.SliceData(tr.upperBuf.Pages()[0]) != unsafe.SliceData(upper) {
		t.Fatal("the upper replica is not the host's pool")
	}
	before := slices.Clone(upper)
	if res := tr.reg.ApplyBatchSequential(splitOps(pairs, b*perLeaf+5, splitCount(tr), 7)); !res.UpperChanged {
		t.Fatal("no split")
	}
	if !slices.Equal(tr.upperBuf.Pages()[0], before) {
		t.Fatal("the host's split reached the upper replica")
	}
}
