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
// sorted node that thread's slot is the rank of the query — the count of
// keys below it — so the kernels compute the warp's answer as a
// branch-free rank, clamped to the last slot. The literal emulation
// (flags, predecessor test, shared result) is kept as the tests' oracle.
//
// The host executes a launch the way the paper's CPU search executes a
// batch (Section 4.2, Algorithm 2): each goroutine standing in for an SM
// descends a group of queries one level at a time, so one query's cache
// miss overlaps the others'. The virtual clock and the transaction
// counts are those of the per-query warp model; only host execution is
// grouped.

// MaxNodeWidth is the widest node (in key slots) any layout descriptor
// may declare. A launch checks every level of its descriptor against it
// once and fails on a wider one, which the historical 16-slot flag array
// would have silently mis-searched.
const MaxNodeWidth = 64

// kernelGroup is how many queries a kernel goroutine descends together;
// their node cursors live in a stack array.
const kernelGroup = 16

// rank is the warp's node search: the count of node's keys below q
// (simd.SearchLinear, Snippet 1's branch-free count), clamped to the
// last slot. On a sorted node it is the first slot whose key is not
// below q, the thread that owns the answer in Snippet 3, and the clamp
// is the node's last slot catching queries above every key (the
// HB+-tree pins trailing separators to MAX).
func rank[K keys.Key](node []K, q K) int {
	return min(simd.SearchLinear(node, q), len(node)-1)
}

// checkGeom fails a launch whose layout table declares a level wider
// than MaxNodeWidth.
func checkGeom(geom []LevelGeom) error {
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
		implicitSearchRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, startLevel, startIdx, 0, len(queries))
	} else {
		d.fanOut(len(queries), func(lo, hi int) {
			implicitSearchRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, startLevel, startIdx, lo, hi)
		})
	}
	return int64(len(queries)) * desc.TransPerQuery(startLevel), nil
}

// implicitSearchRange resolves queries[lo:hi] against the implicit
// I-segment; the kernel body shared by the inline and fanned-out paths.
// It descends kernelGroup queries at a time, one level per step, so the
// group's node probes are independent loads. All geometry comes from
// the per-level layout table.
func implicitSearchRange[K keys.Key](iseg []K, geom []LevelGeom, height, numLeaves int, queries []K, out []int32, startLevel int, startIdx []int32, lo, hi int) {
	var cursor [kernelGroup]int32
	leafMax := int32(numLeaves - 1)
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
			kpn := int(lg.Kpn)
			level := iseg[lg.Off:]
			for j, q := range qs {
				off := int(idx[j]) * kpn
				idx[j] = idx[j]*lg.Fanout + int32(rank(level[off:off+kpn], q))
			}
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

// check fails a launch whose lines are wider than MaxNodeWidth: every
// level of a regular tree searches lines of Kpl keys.
func (d RegularDesc) check() error {
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
		regularSearchRange(upper, last, desc, queries, outLeaf, outLine, startHeight, startIdx, 0, len(queries))
	} else {
		d.fanOut(len(queries), func(lo, hi int) {
			regularSearchRange(upper, last, desc, queries, outLeaf, outLine, startHeight, startIdx, lo, hi)
		})
	}
	h := desc.Height
	if startIdx != nil {
		h = startHeight
	}
	return int64(len(queries)) * int64(h) * 3, nil
}

// regularSearchNode runs the two dependent warp searches of one regular
// inner node (index line, then key line), returning the child slot.
func regularSearchNode[K keys.Key](pool []K, desc RegularDesc, idx int32, q K) int {
	kpl := desc.Kpl
	base := int(idx) * desc.NodeSlots
	s := rank(pool[base:base+kpl], q)                     // index line
	u := rank(pool[base+kpl+s*kpl:base+kpl+(s+1)*kpl], q) // key line
	return s*kpl + u
}

// regularSearchRange resolves queries[lo:hi] against the regular
// I-segment pools; the kernel body shared by the inline and fanned-out
// paths. Like the implicit body it descends kernelGroup queries at a
// time, one level per step.
func regularSearchRange[K keys.Key](upper []K, last [][]K, desc RegularDesc, queries []K, outLeaf, outLine []int32, startHeight int, startIdx []int32, lo, hi int) {
	refs := desc.Kpl + desc.Kpl*desc.Kpl // reference lines' offset in a node
	shift, mask := pageGeom(last, desc)
	height := desc.Height
	if startIdx != nil {
		height = startHeight
	}
	var cursor [kernelGroup]int32
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
			for j, q := range qs {
				c := regularSearchNode(upper, desc, idx[j], q)
				idx[j] = int32(upper[int(idx[j])*desc.NodeSlots+refs+c]) // reference fetch: third access
			}
		}
		for j, q := range qs {
			outLine[g+j] = int32(regularSearchNode(last[idx[j]>>shift], desc, idx[j]&mask, q))
			outLeaf[g+j] = idx[j]
		}
	}
}

// ImplicitSearchKernelSorted is the level-wise shared-descent variant of
// ImplicitSearchKernel for batches sorted ascending (duplicates
// allowed). Sorted queries keep the per-level frontier non-decreasing,
// so all queries resolving to the same node form a contiguous run: the
// run's first query loads the node line and runs the full warp search,
// and every follower either reuses the leader's child slot outright
// (q <= the matched separator) or advances the lower bound forward
// through the already-resident line — one coalesced memory transaction
// per distinct node per level instead of one per query per level. It
// returns the number of transactions actually issued and, when lvl is
// non-nil, accumulates the per-level transaction counts into
// lvl[0..Height-1] (root level first); results are byte-identical to
// the unsorted kernel's for the same queries.
func ImplicitSearchKernelSorted[K keys.Key](d *Device, iseg []K, desc ImplicitDesc, queries []K, out []int32, lvl []int64) (int64, error) {
	if err := d.check(fault.OpKernel); err != nil {
		return 0, err
	}
	geom := desc.Geom()
	if err := checkGeom(geom); err != nil {
		return 0, err
	}
	if d.runsInline(len(queries)) {
		return implicitSortedRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, lvl, 0, len(queries)), nil
	}
	// Each chunk is itself a sorted contiguous range, so sharing still
	// applies within it; only the chunk-boundary nodes are re-probed.
	var trans atomic.Int64
	d.fanOut(len(queries), func(lo, hi int) {
		trans.Add(implicitSortedRange(iseg, geom, desc.Height, desc.NumLeaves, queries, out, lvl, lo, hi))
	})
	return trans.Load(), nil
}

// implicitSortedRange descends queries[lo:hi] level by level, using out
// as the frontier (the node index each query sits at), and returns the
// distinct-node transaction count. A fresh node probe at level l costs
// geom[l].Lines transactions (a wide node spans several coalesced
// lines); followers inside the resident node cost none.
func implicitSortedRange[K keys.Key](iseg []K, geom []LevelGeom, height, numLeaves int, queries []K, out []int32, lvl []int64, lo, hi int) int64 {
	var trans int64
	for i := lo; i < hi; i++ {
		out[i] = 0
	}
	for l := 0; l < height; l++ {
		g := geom[l]
		prevIdx := int32(-1)
		var node []K
		res := 0
		var lt int64
		for i := lo; i < hi; i++ {
			idx := out[i]
			q := queries[i]
			if idx != prevIdx {
				off := int(g.Off) + int(idx)*int(g.Kpn)
				node = iseg[off : off+int(g.Kpn)]
				prevIdx = idx
				res = rank(node, q)
				lt += int64(g.Lines)
			} else if q > node[res] {
				// Monotone advance: a later sorted query's lower bound
				// never moves backwards within the resident node.
				for res < len(node)-1 && q > node[res] {
					res++
				}
			}
			out[i] = idx*g.Fanout + int32(res)
		}
		trans += lt
		if l < len(lvl) {
			// The fanned-out path shares lvl across chunk goroutines.
			atomic.AddInt64(&lvl[l], lt)
		}
	}
	for i := lo; i < hi; i++ {
		if int(out[i]) >= numLeaves {
			out[i] = int32(numLeaves - 1)
		}
	}
	return trans
}

// RegularSearchKernelSorted is the shared-descent variant of
// RegularSearchKernel for sorted batches. A run of queries bounded by
// the matched separator key reuses the leader's (index line, key line,
// reference) resolution wholesale; a query past the separator but still
// inside the same node re-searches the resident index line and pays one
// extra transaction only when it lands on a different key line. It
// returns the transactions issued (3 per fresh node on reference-carrying
// levels, 2 on the last inner level, +1 per key-line switch) and fills
// the optional per-level counts like the implicit variant; results are
// byte-identical to the unsorted kernel's.
func RegularSearchKernelSorted[K keys.Key](d *Device, upper []K, last [][]K, desc RegularDesc, queries []K, outLeaf, outLine []int32, lvl []int64) (int64, error) {
	if err := d.check(fault.OpKernel); err != nil {
		return 0, err
	}
	if err := desc.check(); err != nil {
		return 0, err
	}
	if d.runsInline(len(queries)) {
		return regularSortedRange(upper, last, desc, queries, outLeaf, outLine, lvl, 0, len(queries)), nil
	}
	var trans atomic.Int64
	d.fanOut(len(queries), func(lo, hi int) {
		trans.Add(regularSortedRange(upper, last, desc, queries, outLeaf, outLine, lvl, lo, hi))
	})
	return trans.Load(), nil
}

// regularSortedRange descends queries[lo:hi] through the regular pools
// level by level (outLeaf is the frontier), returning the transaction
// count.
func regularSortedRange[K keys.Key](upper []K, last [][]K, desc RegularDesc, queries []K, outLeaf, outLine []int32, lvl []int64, lo, hi int) int64 {
	kpl := desc.Kpl
	shift, mask := pageGeom(last, desc)
	var trans int64
	for i := lo; i < hi; i++ {
		outLeaf[i] = desc.Root
	}
	for h := desc.Height; h >= 2; h-- {
		prevIdx := int32(-1)
		prevS := -1
		var sep K
		var next int32
		var lt int64
		for i := lo; i < hi; i++ {
			idx := outLeaf[i]
			q := queries[i]
			if idx == prevIdx && q <= sep {
				outLeaf[i] = next
				continue
			}
			newNode := idx != prevIdx
			base := int(idx) * desc.NodeSlots
			s := rank(upper[base:base+kpl], q)
			u := rank(upper[base+kpl+s*kpl:base+kpl+(s+1)*kpl], q)
			sep = upper[base+kpl+s*kpl+u]
			next = int32(upper[base+kpl+kpl*kpl+s*kpl+u])
			switch {
			case newNode:
				lt += 3 // index line, key line, reference line
			case s != prevS:
				lt++ // new key line within the resident node
			}
			prevIdx, prevS = idx, s
			outLeaf[i] = next
		}
		trans += lt
		if l := desc.Height - h; l < len(lvl) {
			atomic.AddInt64(&lvl[l], lt)
		}
	}
	prevIdx := int32(-1)
	prevS := -1
	var sep K
	var line int32
	var lt int64
	for i := lo; i < hi; i++ {
		idx := outLeaf[i]
		q := queries[i]
		if idx == prevIdx && q <= sep {
			outLine[i] = line
			continue
		}
		newNode := idx != prevIdx
		pg := last[idx>>shift]
		base := int(idx&mask) * desc.NodeSlots
		s := rank(pg[base:base+kpl], q)
		u := rank(pg[base+kpl+s*kpl:base+kpl+(s+1)*kpl], q)
		sep = pg[base+kpl+s*kpl+u]
		line = int32(s*kpl + u)
		switch {
		case newNode:
			lt += 2 // index line + key line; the last level has no references
		case s != prevS:
			lt++
		}
		prevIdx, prevS = idx, s
		outLine[i] = line
	}
	trans += lt
	if l := desc.Height - 1; l >= 0 && l < len(lvl) {
		atomic.AddInt64(&lvl[l], lt)
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
