package cpubtree

import (
	"fmt"
	"sync"
	"unsafe"

	"hbtree/internal/keys"
	"hbtree/internal/mem"
	"hbtree/internal/simd"
)

// ImplicitTree is the paper's implicit B+-tree (Sections 3 and 4.1):
// nodes are arranged breadth-first in one array, child locations are
// computed rather than stored, and every inner and leaf node occupies
// exactly one 64-byte cache line. The CPU-optimized configuration packs
// eight 64-bit keys per inner node (fanout 9); the HB+-tree I-segment
// configuration reduces the fanout to 8 and pins the node's last key to
// MAX so that one warp of eight GPU threads covers node search and data
// access with the same shape (Section 5.2).
//
// The structure is static: updates rebuild the whole tree (Section 5.6).
type ImplicitTree[K keys.Key] struct {
	cfg Config

	kpn        int // base key slots per inner node (one line: 8 or 16)
	fanout     int // base children per inner node
	pairsLine  int // key-value pairs per leaf line (4 or 8)
	numPairs   int
	numLeaves  int // leaf lines
	height     int // H: number of inner levels; leaves at height 0
	levelNodes []int
	levelOff   []int // offset (in nodes of the base width) of each level, root first

	// Per-level layout, root first. For a uniform tree every entry
	// repeats the base kpn/fanout; Config.RootWidths widens the top
	// levels into multi-line nodes, shortening the tree.
	levelKpn    []int // key slots per node at each level
	levelFanout []int // children per node at each level
	levelSlot   []int // first key slot of each level within inner

	inner  []K // all inner nodes, breadth first, levelKpn[d] keys each
	leaves []K // leaf lines, interleaved [k0 v0 k1 v1 ...]; may be the caller's pairs

	iseg mem.Segment
	lseg mem.Segment
}

// maxImplicitWidth caps a level's node width in key slots; it mirrors
// the GPU kernels' warp-search bound (gpusim.MaxNodeWidth), which
// cpubtree cannot import without an inverted dependency.
const maxImplicitWidth = 64

// BuildImplicit bulk-loads an implicit tree from sorted, distinct pairs.
// An implicit build may keep pairs as its leaf segment (buildLeaves); do
// not modify them afterwards.
func BuildImplicit[K keys.Key](pairs []keys.Pair[K], cfg Config) (*ImplicitTree[K], error) {
	cfg.fillDefaults()
	kpn := keys.PerLine[K]()
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = kpn + 1 // CPU-optimized default: 9 (64-bit) / 17 (32-bit)
	}
	if fanout < 2 || fanout > kpn+1 {
		return nil, fmt.Errorf("cpubtree: implicit fanout %d out of range [2, %d]", fanout, kpn+1)
	}
	for i, w := range cfg.RootWidths {
		if w == 0 {
			continue // base geometry for this level
		}
		if w < kpn || w%kpn != 0 || w > maxImplicitWidth {
			return nil, fmt.Errorf("cpubtree: root width %d at level %d must be a multiple of %d in [%d, %d]", w, i, kpn, kpn, maxImplicitWidth)
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("cpubtree: empty dataset")
	}

	t := &ImplicitTree[K]{
		cfg:       cfg,
		kpn:       kpn,
		fanout:    fanout,
		pairsLine: kpn / 2,
		numPairs:  len(pairs),
	}
	lineMax, bad := t.buildLeaves(pairs)
	if bad >= 0 {
		return nil, fmt.Errorf("cpubtree: pairs not sorted/distinct at %d", bad)
	}
	if pairs[len(pairs)-1].Key == keys.Max[K]() {
		return nil, fmt.Errorf("cpubtree: key MAX is reserved as sentinel")
	}
	t.buildInner(lineMax)
	t.iseg = cfg.Alloc.Alloc(int64(len(t.inner))*int64(keys.Size[K]()), cfg.ISegPages)
	t.lseg = cfg.Alloc.Alloc(int64(len(t.leaves))*int64(keys.Size[K]()), cfg.LSegPages)
	return t, nil
}

// buildLeaves lays the pairs out as leaf lines in one pass, split into
// contiguous line ranges across the configured workers. When the pairs
// already have the leaf layout — whole lines of two unpadded keys per
// pair, starting on a cache line — the leaf segment is the pairs' own
// memory (the paper's L-segment is the sorted tuple array itself) and
// the pass only reads them; otherwise it copies them into a fresh array
// and pads the unused tail of the last line with the MAX sentinel.
// Either way each worker checks key order within its range and against
// the pair just before it and records every line's maximum key. It
// returns the line maxima and the first index i whose pair does not
// exceed pair i-1, or -1 when the pairs are sorted and distinct; the
// result is the same at every thread count and on both paths.
func (t *ImplicitTree[K]) buildLeaves(pairs []keys.Pair[K]) (lineMax []K, bad int) {
	t.numLeaves = (len(pairs) + t.pairsLine - 1) / t.pairsLine
	alias := leafLayout(pairs, t.pairsLine)
	if alias {
		t.leaves = unsafe.Slice((*K)(unsafe.Pointer(&pairs[0])), 2*len(pairs))
	} else {
		t.leaves = make([]K, t.numLeaves*t.kpn)
	}
	lineMax = make([]K, t.numLeaves)
	bad = len(pairs)
	var mu sync.Mutex
	parallelFor(t.numLeaves, t.cfg.Threads, func(ls, le int) {
		if i := t.fillLines(pairs, lineMax, ls, le, !alias); i >= 0 {
			mu.Lock()
			bad = min(bad, i)
			mu.Unlock()
		}
	})
	if bad == len(pairs) {
		bad = -1
	}
	return lineMax, bad
}

// leafLayout reports whether pairs, read as keys, already are whole leaf
// lines of pairsLine pairs starting on a 64-byte boundary.
func leafLayout[K keys.Key](pairs []keys.Pair[K], pairsLine int) bool {
	return len(pairs) > 0 && len(pairs)%pairsLine == 0 &&
		unsafe.Sizeof(pairs[0]) == 2*unsafe.Sizeof(pairs[0].Key) &&
		uintptr(unsafe.Pointer(&pairs[0]))%64 == 0
}

// fillLines checks leaf lines [ls, le) and records their maxima, and with
// write set also builds them in t.leaves. It returns the first index in
// the lines' pairs that is out of order, or -1; on a disorder the lines
// are left partly built, since the tree is discarded.
func (t *ImplicitTree[K]) fillLines(pairs []keys.Pair[K], lineMax []K, ls, le int, write bool) int {
	maxK := keys.Max[K]()
	var prev K
	if ls > 0 {
		prev = pairs[ls*t.pairsLine-1].Key
	}
	for l := ls; l < le; l++ {
		start := l * t.pairsLine
		end := min(start+t.pairsLine, len(pairs))
		for j, p := range pairs[start:end] {
			if p.Key <= prev && start+j > 0 {
				return start + j
			}
			prev = p.Key
		}
		lineMax[l] = prev
		if !write {
			continue
		}
		line := t.leaves[l*t.kpn : (l+1)*t.kpn]
		for j, p := range pairs[start:end] {
			line[2*j] = p.Key
			line[2*j+1] = p.Value
		}
		for j := 2 * (end - start); j < len(line); j++ {
			line[j] = maxK
		}
	}
	return -1
}

// buildInner fills the breadth-first inner levels above leaf lines whose
// maxima are lineMax.
func (t *ImplicitTree[K]) buildInner(lineMax []K) {
	maxK := keys.Max[K]()

	// Per-level geometry, root first. The height is the smallest H whose
	// per-level fanouts multiply to at least the leaf count — for uniform
	// fanouts this reproduces the classic bottom-up repeated-ceil count
	// (by ceil(ceil(a/b)/c) = ceil(a/(b*c))), so uniform trees are
	// byte-identical to the historical layout. A dataset small enough to
	// fit one leaf line still gets one inner level so that search code is
	// uniform. Config.RootWidths overrides the top levels' width/fanout.
	levelGeom := func(l int) (kpn, fanout int) {
		if l < len(t.cfg.RootWidths) && t.cfg.RootWidths[l] > 0 {
			w := t.cfg.RootWidths[l]
			return w, w
		}
		return t.kpn, t.fanout
	}
	t.height = 1
	for {
		cap := 1
		for l := 0; l < t.height && cap < t.numLeaves; l++ {
			_, f := levelGeom(l)
			cap *= f
		}
		if cap >= t.numLeaves {
			break
		}
		t.height++
	}
	t.levelKpn = make([]int, t.height)
	t.levelFanout = make([]int, t.height)
	t.levelNodes = make([]int, t.height)
	for l := 0; l < t.height; l++ {
		t.levelKpn[l], t.levelFanout[l] = levelGeom(l)
	}
	// Node counts bottom-up: level l packs level l+1 (or the leaves)
	// fanout-of-l at a time; the height choice guarantees one root node.
	n := t.numLeaves
	for l := t.height - 1; l >= 0; l-- {
		n = (n + t.levelFanout[l] - 1) / t.levelFanout[l]
		t.levelNodes[l] = n
	}

	// Root-first offsets of the levels within the one inner array.
	t.levelOff = make([]int, t.height)
	t.levelSlot = make([]int, t.height)
	totalNodes, totalSlots := 0, 0
	for d := 0; d < t.height; d++ {
		t.levelOff[d] = totalNodes
		t.levelSlot[d] = totalSlots
		totalNodes += t.levelNodes[d]
		totalSlots += t.levelNodes[d] * t.levelKpn[d]
	}
	t.inner = make([]K, totalSlots)

	// Inner levels, bottom-up, each written in place and split across the
	// workers by node. The keys of node i are the subtree maxima of its
	// children, MAX for absent children.
	childMax := lineMax
	for l := t.height - 1; l >= 0; l-- {
		kpn, fanout, n := t.levelKpn[l], t.levelFanout[l], t.levelNodes[l]
		nodes := t.inner[t.levelSlot[l] : t.levelSlot[l]+n*kpn]
		maxes := make([]K, n)
		parallelFor(n, t.cfg.Threads, func(s, e int) {
			for i := s; i < e; i++ {
				first := i * fanout
				nch := min(len(childMax)-first, fanout)
				// Slot j holds the separator between children j and
				// j+1 — the subtree maximum of child j. The last child
				// needs no separator: with a full fanout-(kpn+1) node it
				// is reached by exceeding all kpn keys, otherwise its
				// slot stays MAX (the paper pins trailing slots,
				// including K_8 of the fanout-8 HB+ nodes, to the
				// maximum value).
				node := nodes[i*kpn : (i+1)*kpn]
				copy(node, childMax[first:first+nch-1])
				for j := nch - 1; j < kpn; j++ {
					node[j] = maxK
				}
				maxes[i] = childMax[first+nch-1]
			}
		})
		childMax = maxes
	}
}

// node returns the key slots of node i at level d (root is level 0).
func (t *ImplicitTree[K]) node(d, i int) []K {
	kpn := t.levelKpn[d]
	off := t.levelSlot[d] + i*kpn
	return t.inner[off : off+kpn]
}

// leafLine returns leaf line l as interleaved pairs.
func (t *ImplicitTree[K]) leafLine(l int) []K {
	return t.leaves[l*t.kpn : (l+1)*t.kpn]
}

// SearchInner traverses the inner levels only and returns the leaf line
// index holding the lower bound of q. This is the part of the lookup the
// HB+-tree offloads to the GPU.
func (t *ImplicitTree[K]) SearchInner(q K) int {
	return min(t.walk(q, t.height, nil), t.numLeaves-1)
}

// walk descends q through the top depth inner levels, one node search
// (simd.SearchHierarchical, clamped to the node's last child) per level,
// and returns its node index at level depth: the per-query walk of
// SearchInner, WalkToLevel and LookupInstrumented. A non-nil h is told
// every cache line of every node searched; wide tuned nodes span
// several lines, uniform nodes exactly one.
func (t *ImplicitTree[K]) walk(q K, depth int, h mem.Toucher) int {
	idx := 0
	for d := 0; d < depth; d++ {
		node := t.node(d, idx)
		if h != nil {
			sz := int64(keys.Size[K]())
			slot := int64(t.levelSlot[d] + idx*t.levelKpn[d])
			for ln := 0; ln < t.levelKpn[d]; ln += t.kpn {
				h.Touch(t.iseg.Addr((slot+int64(ln))*sz), t.iseg.Kind)
			}
		}
		f := t.levelFanout[d]
		idx = idx*f + min(simd.SearchHierarchical(node, q), f-1)
	}
	return idx
}

// SearchLeafLine finishes a lookup in leaf line l.
func (t *ImplicitTree[K]) SearchLeafLine(l int, q K) (K, bool) {
	return t.searchLoadedLine(l, t.leaves[l*t.kpn], q)
}

// searchLoadedLine is SearchLeafLine for a line whose first key k0 the
// caller has loaded: the scan for the first key >= q starts at k0 and
// goes on through the line's other pairs. Empty slots hold MAX, so the
// scan needs no size field (Section 4.1).
func (t *ImplicitTree[K]) searchLoadedLine(l int, k0, q K) (K, bool) {
	line := t.leafLine(l)
	if q <= k0 {
		if q != k0 {
			return 0, false
		}
		return line[1], true
	}
	i, found := simd.SearchPairsLine(line[2:], q)
	if !found {
		return 0, false
	}
	return line[2*i+3], true
}

// Lookup finds the value stored under q.
func (t *ImplicitTree[K]) Lookup(q K) (K, bool) {
	return t.SearchLeafLine(t.SearchInner(q), q)
}

// LookupInstrumented performs a lookup while reporting every cache-line
// touch to the memory-hierarchy simulator (the PAPI-style measurement of
// Figure 7).
func (t *ImplicitTree[K]) LookupInstrumented(q K, h mem.Toucher) (K, bool) {
	idx := min(t.walk(q, t.height, h), t.numLeaves-1)
	h.Touch(t.lseg.Addr(int64(idx)*int64(t.kpn)*int64(keys.Size[K]())), t.lseg.Kind)
	return t.SearchLeafLine(idx, q)
}

// RangeQuery returns up to count pairs with key >= start, in key order.
// Leaf lines are contiguous, so the scan is sequential (Section 3).
func (t *ImplicitTree[K]) RangeQuery(start K, count int, out []keys.Pair[K]) []keys.Pair[K] {
	maxK := keys.Max[K]()
	l := t.SearchInner(start)
	line := t.leafLine(l)
	i, _ := simd.SearchPairsLine(line, start)
	for len(out) < count {
		for ; i < t.pairsLine; i++ {
			k := line[2*i]
			if k == maxK {
				return out // padding: end of data
			}
			out = append(out, keys.Pair[K]{Key: k, Value: line[2*i+1]})
			if len(out) == count {
				return out
			}
		}
		l++
		if l >= t.numLeaves {
			return out
		}
		line = t.leafLine(l)
		i = 0
	}
	return out
}

// Rebuild replaces the tree contents with a new sorted dataset — the
// implicit tree's only update mechanism (Section 5.6). Segments are
// reallocated, matching the paper's full reconstruction. Like
// BuildImplicit, it may keep pairs as the leaf segment.
func (t *ImplicitTree[K]) Rebuild(pairs []keys.Pair[K]) error {
	nt, err := BuildImplicit(pairs, t.cfg)
	if err != nil {
		return err
	}
	*t = *nt
	return nil
}

// Stats reports the tree geometry (Equations 1 and 2 inputs).
func (t *ImplicitTree[K]) Stats() Stats {
	return Stats{
		NumPairs:      t.numPairs,
		Height:        t.height,
		InnerBytes:    int64(len(t.inner)) * int64(keys.Size[K]()),
		LeafBytes:     int64(len(t.leaves)) * int64(keys.Size[K]()),
		LinesPerQuery: t.height + 1,
	}
}

// Height returns H, the height of the root (leaves at height zero).
func (t *ImplicitTree[K]) Height() int { return t.height }

// Fanout returns the inner-node fanout.
func (t *ImplicitTree[K]) Fanout() int { return t.fanout }

// NumLeafLines returns the number of leaf cache lines.
func (t *ImplicitTree[K]) NumLeafLines() int { return t.numLeaves }

// InnerArray exposes the raw breadth-first I-segment together with the
// per-level node offsets and the base geometry; the HB+-tree mirrors
// exactly these bytes into GPU memory (Figure 4). Tuned trees must also
// consult LevelGeometry — the node offsets alone cannot address levels
// whose width differs from the base.
func (t *ImplicitTree[K]) InnerArray() (inner []K, levelOff []int, kpn, fanout int) {
	return t.inner, t.levelOff, t.kpn, t.fanout
}

// LevelGeomEntry describes one inner level's node geometry, root first.
type LevelGeomEntry struct {
	Nodes  int // node count
	Kpn    int // key slots per node
	Fanout int // children per node
	Slot   int // first key slot of the level within the inner array
}

// LevelGeometry returns the per-level layout table the device descriptor
// is built from. The slice is freshly allocated; callers may keep it.
func (t *ImplicitTree[K]) LevelGeometry() []LevelGeomEntry {
	g := make([]LevelGeomEntry, t.height)
	for d := 0; d < t.height; d++ {
		g[d] = LevelGeomEntry{
			Nodes:  t.levelNodes[d],
			Kpn:    t.levelKpn[d],
			Fanout: t.levelFanout[d],
			Slot:   t.levelSlot[d],
		}
	}
	return g
}

// UniformLayout reports whether every level uses the base geometry — the
// compatibility invariant under which the device descriptor, the
// serialized image and the transaction accounting are byte-identical to
// the historical uniform code.
func (t *ImplicitTree[K]) UniformLayout() bool {
	for d := 0; d < t.height; d++ {
		if t.levelKpn[d] != t.kpn || t.levelFanout[d] != t.fanout {
			return false
		}
	}
	return true
}

// LevelWidths returns the per-level key-slot widths, root first.
func (t *ImplicitTree[K]) LevelWidths() []int {
	return append([]int(nil), t.levelKpn...)
}

// Segments returns the simulated address ranges of the I- and L-segment.
func (t *ImplicitTree[K]) Segments() (iseg, lseg mem.Segment) { return t.iseg, t.lseg }

// Config returns the build configuration.
func (t *ImplicitTree[K]) Config() Config { return t.cfg }

// WalkToLevel traverses the top `depth` inner levels for q and returns
// the node index at that level — the intermediate state the
// load-balanced HB+-tree hands from CPU to GPU (Section 5.5). depth 0
// returns the root index; depth >= Height returns the leaf line index.
func (t *ImplicitTree[K]) WalkToLevel(q K, depth int) int {
	if depth > t.height {
		depth = t.height
	}
	idx := t.walk(q, depth, nil)
	if depth == t.height {
		idx = min(idx, t.numLeaves-1)
	}
	return idx
}

// RangeFromLine scans up to count pairs with key >= start beginning at
// leaf line l (as resolved by a GPU inner traversal), without touching
// the I-segment — the CPU stage of a hybrid range query.
func (t *ImplicitTree[K]) RangeFromLine(l int, start K, count int, out []keys.Pair[K]) []keys.Pair[K] {
	maxK := keys.Max[K]()
	if l < 0 || l >= t.numLeaves {
		return out
	}
	line := t.leafLine(l)
	i, _ := simd.SearchPairsLine(line, start)
	for len(out) < count {
		for ; i < t.pairsLine; i++ {
			k := line[2*i]
			if k == maxK {
				return out
			}
			out = append(out, keys.Pair[K]{Key: k, Value: line[2*i+1]})
			if len(out) == count {
				return out
			}
		}
		l++
		if l >= t.numLeaves {
			return out
		}
		line = t.leafLine(l)
		i = 0
	}
	return out
}
