package cpubtree

import (
	"fmt"

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
	leaves []K // leaf lines, interleaved [k0 v0 k1 v1 ...]

	iseg mem.Segment
	lseg mem.Segment
}

// maxImplicitWidth caps a level's node width in key slots; it mirrors
// the GPU kernels' warp-search bound (gpusim.MaxNodeWidth), which
// cpubtree cannot import without an inverted dependency.
const maxImplicitWidth = 64

// BuildImplicit bulk-loads an implicit tree from sorted, distinct pairs.
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
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Key >= pairs[i].Key {
			return nil, fmt.Errorf("cpubtree: pairs not sorted/distinct at %d", i)
		}
	}
	if pairs[len(pairs)-1].Key == keys.Max[K]() {
		return nil, fmt.Errorf("cpubtree: key MAX is reserved as sentinel")
	}

	t := &ImplicitTree[K]{
		cfg:       cfg,
		kpn:       kpn,
		fanout:    fanout,
		pairsLine: kpn / 2,
		numPairs:  len(pairs),
	}
	t.build(pairs)
	t.iseg = cfg.Alloc.Alloc(int64(len(t.inner))*int64(keys.Size[K]()), cfg.ISegPages)
	t.lseg = cfg.Alloc.Alloc(int64(len(t.leaves))*int64(keys.Size[K]()), cfg.LSegPages)
	return t, nil
}

// build fills the leaf lines and the breadth-first inner levels.
func (t *ImplicitTree[K]) build(pairs []keys.Pair[K]) {
	maxK := keys.Max[K]()
	t.numLeaves = (len(pairs) + t.pairsLine - 1) / t.pairsLine

	// Leaf lines, packed densely and padded with the MAX sentinel.
	t.leaves = make([]K, t.numLeaves*t.kpn)
	for i := range t.leaves {
		t.leaves[i] = maxK
	}
	lineMax := make([]K, t.numLeaves)
	for l := 0; l < t.numLeaves; l++ {
		start := l * t.pairsLine
		end := start + t.pairsLine
		if end > len(pairs) {
			end = len(pairs)
		}
		for j, p := range pairs[start:end] {
			t.leaves[l*t.kpn+2*j] = p.Key
			t.leaves[l*t.kpn+2*j+1] = p.Value
		}
		lineMax[l] = maxKeyOf(pairs[start:end])
	}

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

	// Inner levels, bottom-up. The keys of node i are the subtree maxima
	// of its children, MAX for absent children.
	type level struct {
		nodes []K
		maxes []K
	}
	levels := make([]level, t.height)
	childMax := lineMax
	for l := t.height - 1; l >= 0; l-- {
		kpn, fanout := t.levelKpn[l], t.levelFanout[l]
		n := t.levelNodes[l]
		lv := level{nodes: make([]K, n*kpn), maxes: make([]K, n)}
		for i := range lv.nodes {
			lv.nodes[i] = maxK
		}
		for i := 0; i < n; i++ {
			first := i * fanout
			nch := len(childMax) - first
			if nch > fanout {
				nch = fanout
			}
			// Slot j holds the separator between children j and j+1 —
			// the subtree maximum of child j. The last child needs no
			// separator: with a full fanout-(kpn+1) node it is reached
			// by exceeding all kpn keys, otherwise its slot stays MAX
			// (the paper pins trailing slots, including K_8 of the
			// fanout-8 HB+ nodes, to the maximum value).
			for j := 0; j < nch-1; j++ {
				lv.nodes[i*kpn+j] = childMax[first+j]
			}
			lv.maxes[i] = childMax[first+nch-1]
		}
		levels[l] = lv
		childMax = lv.maxes
	}

	// Concatenate root-first.
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
	for d := 0; d < t.height; d++ {
		copy(t.inner[t.levelSlot[d]:], levels[d].nodes)
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
	idx := 0
	for d := 0; d < t.height; d++ {
		j := simd.Search(t.cfg.NodeSearch, t.node(d, idx), q)
		idx = idx*t.levelFanout[d] + j
	}
	if idx >= t.numLeaves {
		idx = t.numLeaves - 1
	}
	return idx
}

// SearchLeafLine finishes a lookup in leaf line l.
func (t *ImplicitTree[K]) SearchLeafLine(l int, q K) (K, bool) {
	line := t.leafLine(l)
	i, found := simd.SearchPairsLine(line, q)
	if !found {
		return 0, false
	}
	return line[2*i+1], true
}

// Lookup finds the value stored under q.
func (t *ImplicitTree[K]) Lookup(q K) (K, bool) {
	return t.SearchLeafLine(t.SearchInner(q), q)
}

// LookupInstrumented performs a lookup while reporting every cache-line
// touch to the memory-hierarchy simulator (the PAPI-style measurement of
// Figure 7).
func (t *ImplicitTree[K]) LookupInstrumented(q K, h mem.Toucher) (K, bool) {
	sz := int64(keys.Size[K]())
	idx := 0
	for d := 0; d < t.height; d++ {
		// One touch per cache line of the node: wide tuned nodes span
		// several lines, uniform nodes exactly one.
		slot := int64(t.levelSlot[d] + idx*t.levelKpn[d])
		for ln := 0; ln < t.levelKpn[d]; ln += t.kpn {
			h.Touch(t.iseg.Addr((slot+int64(ln))*sz), t.iseg.Kind)
		}
		j := simd.Search(t.cfg.NodeSearch, t.node(d, idx), q)
		idx = idx*t.levelFanout[d] + j
	}
	if idx >= t.numLeaves {
		idx = t.numLeaves - 1
	}
	h.Touch(t.lseg.Addr(int64(idx)*int64(t.kpn)*sz), t.lseg.Kind)
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
// reallocated, matching the paper's full reconstruction.
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
	idx := 0
	for d := 0; d < depth; d++ {
		j := simd.Search(t.cfg.NodeSearch, t.node(d, idx), q)
		idx = idx*t.levelFanout[d] + j
	}
	if depth == t.height && idx >= t.numLeaves {
		idx = t.numLeaves - 1
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
