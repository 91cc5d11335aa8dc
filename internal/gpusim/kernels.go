package gpusim

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"hbtree/internal/fault"
	"hbtree/internal/keys"
	"hbtree/internal/simd"
)

// This file implements the GPU search kernels functionally. Each query
// is resolved by a "warp team" of T threads (8 for 64-bit keys, 16 for
// 32-bit keys; Section 5.3) executing the parallel node search of
// Snippet 3: every team thread compares its assigned key with the query
// and the first thread whose key is not below it owns the answer. On a
// sorted node that thread's slot is the query's lower bound, clamped to
// the last slot, so the kernels compute the warp's answer with the host
// tree's own node search (internal/simd), the CPU's fastest (Figure 8):
// the implicit kernel descends by simd.DescendLevel, the level step
// cpubtree's grouped descent runs too, and the regular kernel searches
// its lines with simd.SearchHierarchical. The literal emulation (flags,
// predecessor test, shared result) is kept as the tests' oracle.
//
// The host executes a launch the way the paper's CPU search executes a
// batch (Section 4.2, Algorithm 2): each goroutine standing in for an SM
// descends a group of queries one level at a time, and the implicit
// level step loads every member's node before it searches any, so one
// query's cache miss overlaps the others'. The virtual clock and the
// transaction counts are those of the per-query warp model; only host
// execution is grouped.
//
// A sorted batch runs the same grouped bodies. Sorting keeps every
// level's frontier non-decreasing, so the queries that share a node are
// adjacent and the node costs its transactions once: the sorted
// launches count, level by level, the distinct nodes the frontier
// touches, and that count is the shared-descent transaction account.

// MaxNodeWidth is the widest node (in key slots) any layout descriptor
// may declare. A launch checks every level of its descriptor against it
// once and fails on a wider one, which the historical 16-slot flag array
// would have silently mis-searched.
const MaxNodeWidth = 64

// kernelGroup is how many queries a kernel goroutine descends together;
// their node cursors live in a stack array.
const kernelGroup = 16

// maxHeight is the tallest tree (in inner levels) a launch accepts: a
// sorted launch carries per-level frontier state in fixed arrays, and
// every launch checks its descriptor against the bound once.
const maxHeight = 32

// checkGeom fails a launch whose layout table declares a level wider
// than MaxNodeWidth, or more levels than maxHeight.
func checkGeom(geom []LevelGeom) error {
	if len(geom) > maxHeight {
		return fmt.Errorf("gpusim: %d inner levels exceed the launch bound %d", len(geom), maxHeight)
	}
	for l, g := range geom {
		if g.Kpn > MaxNodeWidth {
			return fmt.Errorf("gpusim: level %d node width %d exceeds MaxNodeWidth %d", l, g.Kpn, MaxNodeWidth)
		}
	}
	return nil
}

// LevelGeom is one level's node geometry in the layout descriptor: the
// kernels read it instead of assuming a uniform key-per-node count, so a
// tree may use wide multi-line nodes near the root and packed one-line
// nodes near the leaves.
type LevelGeom struct {
	Off    int32 // first key slot of the level within the I-segment
	Kpn    int32 // key slots per node at this level
	Fanout int32 // children per node at this level
	Lines  int32 // coalesced 64-byte transactions per node probe
}

// ImplicitDesc describes the implicit HB+-tree I-segment resident in
// device memory. The scalar Kpn/Fanout fields describe the base
// (uniform) geometry; a non-nil Levels table overrides them per level.
type ImplicitDesc struct {
	LevelOff  []int32 // offset of each level in nodes of the base width, root first
	Kpn       int     // base key slots per node (threads per query, T)
	Fanout    int     // base children per node (8 / 16 for the HB+ layout)
	Height    int     // inner levels
	NumLeaves int     // leaf lines (for final clamping)

	// Levels, when non-nil, is the per-level layout table the kernels
	// traverse by. nil means uniform geometry derived from the scalar
	// fields; callers on the allocation-free serving path should
	// populate it once via Geom so kernels never materialise it.
	Levels []LevelGeom
}

// Geom returns the descriptor's per-level layout table, materialising
// the uniform table from the scalar fields when Levels is nil. For a
// uniform descriptor the returned geometry is exactly the historical
// arithmetic: level l starts at slot LevelOff[l]*Kpn, every node holds
// Kpn slots, fans out Fanout ways, and costs one transaction per probe.
func (d ImplicitDesc) Geom() []LevelGeom {
	if d.Levels != nil {
		return d.Levels
	}
	g := make([]LevelGeom, d.Height)
	for l := range g {
		g[l] = LevelGeom{
			Off:    d.LevelOff[l] * int32(d.Kpn),
			Kpn:    int32(d.Kpn),
			Fanout: int32(d.Fanout),
			Lines:  1,
		}
	}
	return g
}

// TransPerQuery returns the device transactions one query descending
// from startLevel issues: the per-level line counts summed over the
// remaining levels. Uniform descriptors reduce to Height-startLevel,
// the historical per-query cost.
func (d ImplicitDesc) TransPerQuery(startLevel int) int64 {
	if d.Levels == nil {
		return int64(d.Height - startLevel)
	}
	var t int64
	for l := startLevel; l < d.Height; l++ {
		t += int64(d.Levels[l].Lines)
	}
	return t
}

// ImplicitSearchKernel traverses the device-resident implicit I-segment
// for each query, writing the target leaf line index. startLevel and
// startIdx support the load-balanced mode where the CPU pre-walks the
// top D levels (Section 5.5); pass startLevel 0 and nil startIdx for the
// full traversal. It returns the number of device-memory transactions
// issued (one coalesced 64-byte access per node per query), or a typed
// fault when an attached injector fails the launch, or an error when a
// level of desc is wider than MaxNodeWidth — in which case out is
// untouched.
func ImplicitSearchKernel[K keys.Key](d *Device, iseg []K, desc ImplicitDesc, queries []K, out []int32, startLevel int, startIdx []int32) (int64, error) {
	if err := d.check(fault.OpKernel); err != nil {
		return 0, err
	}
	geom := desc.Geom()
	if err := checkGeom(geom); err != nil {
		return 0, err
	}
	// The small-batch path runs inline without constructing the fan-out
	// closure, keeping the steady-state serving pipeline allocation-free.
	if d.runsInline(len(queries)) {
		implicitSearchRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, startLevel, startIdx, 0, len(queries), nil)
	} else {
		d.fanOut(len(queries), func(lo, hi int) {
			implicitSearchRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, startLevel, startIdx, lo, hi, nil)
		})
	}
	return int64(len(queries)) * desc.TransPerQuery(startLevel), nil
}

// ImplicitSearchKernelSorted is ImplicitSearchKernel from the root for
// a batch sorted ascending (duplicates allowed), charged as a shared
// descent: each level costs one node probe (geom[l].Lines coalesced
// transactions) per distinct node the batch's frontier touches, not one
// per query. It returns that transaction count and, when lvl is
// non-nil, adds the per-level counts into lvl[0..Height-1] (root level
// first). Each fan-out chunk counts its own frontier, so a node that
// spans a chunk boundary is probed once per chunk. Results are those of
// ImplicitSearchKernel.
func ImplicitSearchKernelSorted[K keys.Key](d *Device, iseg []K, desc ImplicitDesc, queries []K, out []int32, lvl []int64) (int64, error) {
	if err := d.check(fault.OpKernel); err != nil {
		return 0, err
	}
	geom := desc.Geom()
	if err := checkGeom(geom); err != nil {
		return 0, err
	}
	if d.runsInline(len(queries)) {
		var f frontier
		implicitSearchRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, 0, nil, 0, len(queries), &f)
		return f.settle(lvl, desc.Height), nil
	}
	var trans atomic.Int64
	d.fanOut(len(queries), func(lo, hi int) {
		var f frontier
		implicitSearchRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, 0, nil, lo, hi, &f)
		trans.Add(f.settle(lvl, desc.Height))
	})
	return trans.Load(), nil
}

// implicitSearchRange resolves queries[lo:hi] against the implicit
// I-segment; the kernel body shared by the inline and fanned-out paths
// and by the plain and sorted launches. It descends kernelGroup queries
// at a time, one level per step, as the paper's Algorithm 2 does: each
// level is simd.DescendLevel, the host tree's level step, which loads
// every member's node before it searches any, so the group's misses
// overlap. All geometry comes from the per-level layout table. A
// non-nil f counts the range's shared-descent transactions.
func implicitSearchRange[K keys.Key](iseg []K, geom []LevelGeom, height, numLeaves int, queries []K, out []int32, startLevel int, startIdx []int32, lo, hi int, f *frontier) {
	var cursor [kernelGroup]int32
	var loaded [kernelGroup]K
	leafMax := int32(numLeaves - 1)
	if f != nil {
		f.reset()
	}
	for g := lo; g < hi; g += kernelGroup {
		qs := queries[g:min(g+kernelGroup, hi)]
		idx := cursor[:len(qs)]
		if startIdx != nil {
			copy(idx, startIdx[g:])
		} else {
			clear(idx)
		}
		for lvl := startLevel; lvl < height; lvl++ {
			lg := geom[lvl]
			if f != nil {
				f.count(lvl, idx, lg.Lines)
			}
			simd.DescendLevel(iseg[lg.Off:], int(lg.Kpn), int(lg.Fanout), qs, idx, loaded[:])
		}
		for j := range qs {
			out[g+j] = min(idx[j], leafMax)
		}
	}
}

// RegularDesc describes the regular HB+-tree inner segments resident in
// device memory.
type RegularDesc struct {
	Root        int32
	RootInUpper bool // height >= 2
	Height      int  // inner levels (last-level nodes at height 1)
	NodeSlots   int  // K slots per inner node
	Kpl         int  // keys per line (threads per query)
}

// check fails a launch whose lines are wider than MaxNodeWidth (every
// level of a regular tree searches lines of Kpl keys) or whose tree is
// taller than maxHeight.
func (d RegularDesc) check() error {
	if d.Height > maxHeight {
		return fmt.Errorf("gpusim: %d inner levels exceed the launch bound %d", d.Height, maxHeight)
	}
	if d.Kpl > MaxNodeWidth {
		return fmt.Errorf("gpusim: regular node line width %d exceeds MaxNodeWidth %d", d.Kpl, MaxNodeWidth)
	}
	return nil
}

// pageGeom returns the shift and mask that split a last-level node
// index into its page of last and its slot in the page. Every page has
// room for the same power-of-two number of nodes, so the first page's
// capacity gives the page size.
func pageGeom[K keys.Key](last [][]K, desc RegularDesc) (shift uint, mask int32) {
	n := cap(last[0]) / desc.NodeSlots
	return uint(bits.TrailingZeros(uint(n))), int32(n - 1)
}

// RegularSearchKernel traverses the device-resident regular I-segment
// (the upper pool and the last-level pool's pages, each with room for
// the same power-of-two number of nodes) for each query,
// writing the target big leaf and leaf line. Each node costs three
// dependent accesses: index line, key line, reference slot (Section
// 5.3); the page-table load that finds a last-level node is not a
// transaction of its own, as the page table of a real replica would sit
// in constant memory. startHeight/startIdx support the load-balanced
// mode. It returns the number of device-memory transactions issued, or a
// typed fault when an attached injector fails the launch, or an error
// when desc's lines are wider than MaxNodeWidth — in which case
// outLeaf/outLine are untouched.
func RegularSearchKernel[K keys.Key](d *Device, upper []K, last [][]K, desc RegularDesc, queries []K, outLeaf, outLine []int32, startHeight int, startIdx []int32) (int64, error) {
	if err := d.check(fault.OpKernel); err != nil {
		return 0, err
	}
	if err := desc.check(); err != nil {
		return 0, err
	}
	// As with the implicit kernel, the small-batch path avoids the
	// fan-out closure so steady-state serving stays allocation-free.
	if d.runsInline(len(queries)) {
		regularSearchRange(upper, last, desc, queries, outLeaf, outLine, startHeight, startIdx, 0, len(queries), nil)
	} else {
		d.fanOut(len(queries), func(lo, hi int) {
			regularSearchRange(upper, last, desc, queries, outLeaf, outLine, startHeight, startIdx, lo, hi, nil)
		})
	}
	h := desc.Height
	if startIdx != nil {
		h = startHeight
	}
	return int64(len(queries)) * int64(h) * 3, nil
}

// regularSearchNode runs the two dependent warp searches of one regular
// inner node (index line, then key line), returning the child slot. A
// warp's search is the host's node search, simd.SearchHierarchical,
// clamped to the line's last slot.
func regularSearchNode[K keys.Key](pool []K, desc RegularDesc, idx int32, q K) int {
	kpl := desc.Kpl
	base := int(idx) * desc.NodeSlots
	s := min(simd.SearchHierarchical(pool[base:base+kpl], q), kpl-1)                     // index line
	u := min(simd.SearchHierarchical(pool[base+kpl+s*kpl:base+kpl+(s+1)*kpl], q), kpl-1) // key line
	return s*kpl + u
}

// RegularSearchKernelSorted is RegularSearchKernel from the root for a
// sorted batch, charged as a shared descent: per distinct node the
// frontier touches, 3 transactions on reference-carrying levels and 2
// on the last inner level (no references), plus 1 whenever a query in
// the same node as the query before it reads a different key line. It
// returns that count and fills the optional per-level counts like the
// implicit variant; results are those of RegularSearchKernel.
func RegularSearchKernelSorted[K keys.Key](d *Device, upper []K, last [][]K, desc RegularDesc, queries []K, outLeaf, outLine []int32, lvl []int64) (int64, error) {
	if err := d.check(fault.OpKernel); err != nil {
		return 0, err
	}
	if err := desc.check(); err != nil {
		return 0, err
	}
	if d.runsInline(len(queries)) {
		var f frontier
		regularSearchRange(upper, last, desc, queries, outLeaf, outLine, desc.Height, nil, 0, len(queries), &f)
		return f.settle(lvl, desc.Height), nil
	}
	var trans atomic.Int64
	d.fanOut(len(queries), func(lo, hi int) {
		var f frontier
		regularSearchRange(upper, last, desc, queries, outLeaf, outLine, desc.Height, nil, lo, hi, &f)
		trans.Add(f.settle(lvl, desc.Height))
	})
	return trans.Load(), nil
}

// regularSearchRange resolves queries[lo:hi] against the regular
// I-segment pools; the kernel body shared by the inline and fanned-out
// paths and by the plain and sorted launches. Like the implicit body it
// descends kernelGroup queries at a time, one level per step. A non-nil
// f counts the range's shared-descent transactions.
func regularSearchRange[K keys.Key](upper []K, last [][]K, desc RegularDesc, queries []K, outLeaf, outLine []int32, startHeight int, startIdx []int32, lo, hi int, f *frontier) {
	refs := desc.Kpl + desc.Kpl*desc.Kpl // reference lines' offset in a node
	shift, mask := pageGeom(last, desc)
	height := desc.Height
	if startIdx != nil {
		height = startHeight
	}
	if f != nil {
		f.reset()
	}
	var cursor, node, child [kernelGroup]int32
	for g := lo; g < hi; g += kernelGroup {
		qs := queries[g:min(g+kernelGroup, hi)]
		idx := cursor[:len(qs)]
		if startIdx != nil {
			copy(idx, startIdx[g:])
		} else {
			for j := range idx {
				idx[j] = desc.Root
			}
		}
		for h := height; h >= 2; h-- {
			if f != nil {
				copy(node[:], idx)
			}
			for j, q := range qs {
				c := regularSearchNode(upper, desc, idx[j], q)
				child[j] = int32(c)
				idx[j] = int32(upper[int(idx[j])*desc.NodeSlots+refs+c]) // reference fetch: third access
			}
			if f != nil {
				f.countLines(desc.Height-h, node[:len(qs)], child[:len(qs)], desc.Kpl, 3)
			}
		}
		for j, q := range qs {
			outLine[g+j] = int32(regularSearchNode(last[idx[j]>>shift], desc, idx[j]&mask, q))
			outLeaf[g+j] = idx[j]
		}
		if f != nil {
			f.countLines(desc.Height-1, idx, outLine[g:g+len(qs)], desc.Kpl, 2)
		}
	}
}

// frontier is a sorted launch's shared-descent account over one fan-out
// chunk. Per level it carries the previous query's node (and, on the
// regular tree, the index-line slot that chose its key line) across the
// chunk's query groups, and sums the level's transactions. In a sorted
// batch the queries that share a node are adjacent, so a node differing
// from the previous query's is a fresh probe.
type frontier struct {
	node [maxHeight]int32
	slot [maxHeight]int32
	lvl  [maxHeight]int64
}

// reset starts a chunk: no level has a resident node yet.
func (f *frontier) reset() {
	for l := range f.node {
		f.node[l], f.slot[l], f.lvl[l] = -1, -1, 0
	}
}

// count charges implicit level l: lines transactions per node of nodes
// that differs from the node before it. It and countLines stay out of
// line: inlined into a kernel body, their loops cost the plain launch's
// search loop ~5 % (2^16 pairs, 16 384 queries, one goroutine on a
// 2-vCPU x86-64 host).
//
//go:noinline
func (f *frontier) count(l int, nodes []int32, lines int32) {
	prev := f.node[l]
	var n int64
	for _, v := range nodes {
		if v != prev {
			n++
			prev = v
		}
	}
	f.node[l] = prev
	f.lvl[l] += n * int64(lines)
}

// countLines charges regular level l, whose queries sit at nodes and
// took child slots children: fresh transactions per node that differs
// from the node before it, and 1 when the node is the same but the
// index-line slot (child / kpl), and so the key line, changed.
//
//go:noinline
func (f *frontier) countLines(l int, nodes, children []int32, kpl int, fresh int64) {
	prev, prevS := f.node[l], f.slot[l]
	var n int64
	for j, v := range nodes {
		s := children[j] / int32(kpl)
		switch {
		case v != prev:
			n += fresh
		case s != prevS:
			n++
		}
		prev, prevS = v, s
	}
	f.node[l], f.slot[l] = prev, prevS
	f.lvl[l] += n
}

// settle adds the chunk's first height per-level counts into lvl (when
// non-nil; fanned-out chunks share it) and returns their total.
func (f *frontier) settle(lvl []int64, height int) int64 {
	var trans int64
	for l, n := range f.lvl[:height] {
		trans += n
		if l < len(lvl) {
			atomic.AddInt64(&lvl[l], n)
		}
	}
	return trans
}

// runsInline reports whether a kernel over n queries executes on the
// calling goroutine (too small to be worth fanning out).
func (d *Device) runsInline(n int) bool {
	return d.workers <= 1 || n < 1024
}

// fanOut spreads the query range across the device's worker goroutines
// (the SM array stand-in).
func (d *Device) fanOut(n int, run func(lo, hi int)) {
	if d.runsInline(n) {
		run(0, n)
		return
	}
	w := d.workers
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo := i * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
