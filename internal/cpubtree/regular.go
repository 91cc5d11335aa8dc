package cpubtree

import (
	"fmt"

	"hbtree/internal/keys"
	"hbtree/internal/mem"
	"hbtree/internal/simd"
)

// RegularTree is the paper's regular (pointered) B+-tree with the
// cache-blocked node layout of Section 4.1 / Figure 2(c,d):
//
//   - Inner nodes span 1+2*kpl cache lines (17 for 64-bit keys): one
//     index line whose slot s holds the maximum key of key line s
//     (I_s = K_{8s}), kpl key lines (F_I = kpl^2 = 64 separators) and kpl
//     reference lines. A node search touches only three lines: index
//     line, one key line, one reference line.
//   - Node fragmentation: the hot fragment (index/key/ref lines) lives in
//     a pooled array addressed by node index; the cold fragment (child
//     count, parent, siblings) lives in a parallel metadata pool sharing
//     the same index, so it never pollutes the search path.
//   - Big leaves: 64 small leaf lines (4 pairs each for 64-bit) plus an
//     info line are packed into one 256-entry big leaf. Last-level inner
//     nodes and big leaves are allocated from paired pools sharing the
//     same index, so the lookup retrieves the target leaf cache line
//     directly from the last inner node's index and search result.
//
// Empty key slots hold MAX so node search needs no size field; the slot
// of a node's last child also stays MAX, making it the catch-all for
// queries above every separator.
type RegularTree[K keys.Key] struct {
	cfg Config

	kpl       int // keys per line (8 / 16)
	fanout    int // F_I = kpl^2 (64 / 256)
	ppl       int // pairs per leaf line (4 / 8)
	leafCap   int // pairs per big leaf (256 / 2048)
	nodeSlots int // K slots per inner node: kpl*(1+2*kpl)
	leafSlots int // K slots per big leaf: fanout*kpl

	height   int // H: levels of inner nodes; leaves at height 0, last-level inner at height 1
	root     int32
	numPairs int

	upper     []K // inner nodes at height >= 2
	upperMeta []nodeMeta
	last      []K // last-level inner nodes (height 1), index-paired with big leaves
	lastMeta  []nodeMeta
	leafData  []K // big leaves: packed interleaved pairs
	leafMeta  []leafMeta

	freeLast  []int32
	freeUpper []int32

	headLeaf, tailLeaf int32 // leaf-chain ends for ordered scans

	// sharedPools marks a delta fork (ForkDelta): the node pools belong
	// to the ancestor chain and structural mutation must panic.
	// deltaLeaves counts big leaves with uncompacted delta entries;
	// Clone() compacts and resets it.
	sharedPools bool
	deltaLeaves int

	upperSeg, lastSeg, leafSeg mem.Segment
}

// nodeMeta is the cold fragment of an inner node (Section 4.1's node
// fragmentation): size and parent/sibling references kept off the search
// path in a pool sharing the node's index.
type nodeMeta struct {
	nchild int32
	parent int32 // index into the upper pool; -1 for the root
}

// leafMeta is the big leaf's info line: pair count and sibling links for
// the sorted leaf chain, plus the gapped-delta state (delta.go): ndelta
// append-only entries behind the base pairs, a tombstone bitmask over
// them, and the net live-pair adjustment they carry. The delta fields
// are per-epoch — ForkDelta deep-copies this slice — which is what lets
// an in-place batch publish new slot counts while older epochs keep
// their own.
type leafMeta struct {
	npairs int32
	next   int32
	prev   int32

	ndelta int32  // delta entries appended behind the base pairs
	nlive  int32  // net live-pair delta: live(b) = npairs + nlive
	tomb   uint64 // bit j set: delta entry j is a tombstone
}

const nilRef = int32(-1)

// BuildRegular bulk-loads a regular tree from sorted, distinct pairs.
func BuildRegular[K keys.Key](pairs []keys.Pair[K], cfg Config) (*RegularTree[K], error) {
	cfg.fillDefaults()
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

	kpl := keys.PerLine[K]()
	t := &RegularTree[K]{
		cfg:       cfg,
		kpl:       kpl,
		fanout:    kpl * kpl,
		ppl:       kpl / 2,
		nodeSlots: kpl * (1 + 2*kpl),
	}
	t.leafCap = t.fanout * t.ppl
	t.leafSlots = t.fanout * t.kpl
	t.bulkLoad(pairs)

	sz := int64(keys.Size[K]())
	t.upperSeg = cfg.Alloc.Alloc(int64(len(t.upper))*sz, cfg.ISegPages)
	t.lastSeg = cfg.Alloc.Alloc(int64(len(t.last))*sz, cfg.ISegPages)
	t.leafSeg = cfg.Alloc.Alloc(int64(len(t.leafData))*sz, cfg.LSegPages)
	return t, nil
}

// --- node accessors -------------------------------------------------

// indexLine returns the index line of node idx in pool.
func (t *RegularTree[K]) indexLine(pool []K, idx int32) []K {
	off := int(idx) * t.nodeSlots
	return pool[off : off+t.kpl]
}

// keyLine returns key line s of node idx.
func (t *RegularTree[K]) keyLine(pool []K, idx int32, s int) []K {
	off := int(idx)*t.nodeSlots + t.kpl + s*t.kpl
	return pool[off : off+t.kpl]
}

// nodeKeys returns the full separator array (fanout slots) of node idx.
func (t *RegularTree[K]) nodeKeys(pool []K, idx int32) []K {
	off := int(idx)*t.nodeSlots + t.kpl
	return pool[off : off+t.fanout]
}

// nodeRefs returns the full reference array (fanout slots) of node idx.
func (t *RegularTree[K]) nodeRefs(pool []K, idx int32) []K {
	off := int(idx)*t.nodeSlots + t.kpl + t.fanout
	return pool[off : off+t.fanout]
}

// leafLine returns line c of big leaf b as interleaved pairs.
func (t *RegularTree[K]) leafLine(b int32, c int) []K {
	off := int(b)*t.leafSlots + c*t.kpl
	return t.leafData[off : off+t.kpl]
}

// leafPairs returns the packed pair array (all slots) of big leaf b.
func (t *RegularTree[K]) leafPairs(b int32) []K {
	off := int(b) * t.leafSlots
	return t.leafData[off : off+t.leafSlots]
}

// refreshIndexLine recomputes the index line from the separator array:
// slot s mirrors the last key of key line s.
func (t *RegularTree[K]) refreshIndexLine(pool []K, idx int32) {
	il := t.indexLine(pool, idx)
	ks := t.nodeKeys(pool, idx)
	for s := 0; s < t.kpl; s++ {
		il[s] = ks[s*t.kpl+t.kpl-1]
	}
}

// refreshLastKeys recomputes the separator array of last-level node b
// from its big leaf's packed pairs: slot c carries the maximum key of
// leaf line c for every line except the last in use, whose slot (and all
// later ones) stays MAX.
func (t *RegularTree[K]) refreshLastKeys(b int32) {
	maxK := keys.Max[K]()
	ks := t.nodeKeys(t.last, b)
	np := int(t.leafMeta[b].npairs)
	used := (np + t.ppl - 1) / t.ppl
	if used < 1 {
		used = 1
	}
	data := t.leafPairs(b)
	for c := 0; c < t.fanout; c++ {
		if c < used-1 {
			ks[c] = data[2*((c+1)*t.ppl-1)]
		} else {
			ks[c] = maxK
		}
	}
	t.lastMeta[b].nchild = int32(used)
	t.refreshIndexLine(t.last, b)
}

// --- allocation -----------------------------------------------------

func (t *RegularTree[K]) allocLast() int32 {
	if n := len(t.freeLast); n > 0 {
		idx := t.freeLast[n-1]
		t.freeLast = t.freeLast[:n-1]
		t.clearNode(t.last, idx)
		t.clearLeaf(idx)
		return idx
	}
	idx := int32(len(t.lastMeta))
	t.last = append(t.last, make([]K, t.nodeSlots)...)
	t.lastMeta = append(t.lastMeta, nodeMeta{parent: nilRef})
	t.leafData = append(t.leafData, make([]K, t.leafSlots)...)
	t.leafMeta = append(t.leafMeta, leafMeta{next: nilRef, prev: nilRef})
	t.clearNode(t.last, idx)
	t.clearLeaf(idx)
	return idx
}

func (t *RegularTree[K]) allocUpper() int32 {
	if n := len(t.freeUpper); n > 0 {
		idx := t.freeUpper[n-1]
		t.freeUpper = t.freeUpper[:n-1]
		t.clearNode(t.upper, idx)
		t.upperMeta[idx] = nodeMeta{parent: nilRef}
		return idx
	}
	idx := int32(len(t.upperMeta))
	t.upper = append(t.upper, make([]K, t.nodeSlots)...)
	t.upperMeta = append(t.upperMeta, nodeMeta{parent: nilRef})
	t.clearNode(t.upper, idx)
	return idx
}

func (t *RegularTree[K]) clearNode(pool []K, idx int32) {
	maxK := keys.Max[K]()
	off := int(idx) * t.nodeSlots
	node := pool[off : off+t.nodeSlots]
	for i := 0; i < t.kpl+t.fanout; i++ { // index line + key lines
		node[i] = maxK
	}
	for i := t.kpl + t.fanout; i < t.nodeSlots; i++ { // ref lines
		node[i] = 0
	}
}

func (t *RegularTree[K]) clearLeaf(b int32) {
	maxK := keys.Max[K]()
	data := t.leafPairs(b)
	for i := 0; i < len(data); i += 2 {
		data[i] = maxK
		data[i+1] = 0
	}
	t.leafMeta[b] = leafMeta{next: nilRef, prev: nilRef}
	t.lastMeta[b] = nodeMeta{parent: nilRef, nchild: 1}
}

// --- bulk load ------------------------------------------------------

func (t *RegularTree[K]) bulkLoad(pairs []keys.Pair[K]) {
	t.numPairs = len(pairs)

	perLeaf := int(float64(t.leafCap) * t.cfg.LeafFill)
	if perLeaf < 1 {
		perLeaf = 1
	}
	if perLeaf > t.leafCap {
		perLeaf = t.leafCap
	}
	numLeaves := (len(pairs) + perLeaf - 1) / perLeaf

	// Big leaves plus their paired last-level nodes.
	children := make([]int32, 0, numLeaves)
	childMax := make([]K, 0, numLeaves)
	var prev int32 = nilRef
	for l := 0; l < numLeaves; l++ {
		b := t.allocLast()
		start := l * perLeaf
		end := start + perLeaf
		if end > len(pairs) {
			end = len(pairs)
		}
		data := t.leafPairs(b)
		for j, p := range pairs[start:end] {
			data[2*j] = p.Key
			data[2*j+1] = p.Value
		}
		t.leafMeta[b].npairs = int32(end - start)
		t.leafMeta[b].prev = prev
		if prev != nilRef {
			t.leafMeta[prev].next = b
		} else {
			t.headLeaf = b
		}
		prev = b
		t.refreshLastKeys(b)
		children = append(children, b)
		childMax = append(childMax, pairs[end-1].Key)
	}
	t.tailLeaf = prev

	// Upper levels.
	perNode := int(float64(t.fanout) * t.cfg.LeafFill)
	if perNode < 2 {
		perNode = 2
	}
	if perNode > t.fanout {
		perNode = t.fanout
	}
	t.height = 1
	childrenInLast := true // children currently in the last-level pool?
	for len(children) > 1 {
		n := (len(children) + perNode - 1) / perNode
		nextChildren := make([]int32, 0, n)
		nextMax := make([]K, 0, n)
		for i := 0; i < n; i++ {
			u := t.allocUpper()
			first := i * perNode
			nch := len(children) - first
			if nch > perNode {
				nch = perNode
			}
			ks := t.nodeKeys(t.upper, u)
			rs := t.nodeRefs(t.upper, u)
			for j := 0; j < nch; j++ {
				c := children[first+j]
				rs[j] = K(c)
				if j < nch-1 {
					ks[j] = childMax[first+j]
				}
				if childrenInLast {
					t.lastMeta[c].parent = u
				} else {
					t.upperMeta[c].parent = u
				}
			}
			t.upperMeta[u].nchild = int32(nch)
			t.refreshIndexLine(t.upper, u)
			nextChildren = append(nextChildren, u)
			nextMax = append(nextMax, childMax[first+nch-1])
		}
		children, childMax = nextChildren, nextMax
		childrenInLast = false
		t.height++
	}
	t.root = children[0]
}

// --- search ---------------------------------------------------------

// searchNode performs the three-phase node search of Section 5.3: index
// line, selected key line, selected reference slot. It returns the child
// position c within the node.
func (t *RegularTree[K]) searchNode(pool []K, idx int32, q K) int {
	s := simd.Search(t.cfg.NodeSearch, t.indexLine(pool, idx), q)
	if s >= t.kpl {
		s = t.kpl - 1 // cannot happen: the last index slot is MAX
	}
	u := simd.Search(t.cfg.NodeSearch, t.keyLine(pool, idx, s), q)
	if u >= t.kpl {
		u = t.kpl - 1
	}
	return s*t.kpl + u
}

// SearchToLeaf traverses every inner level and returns the big leaf and
// the leaf cache line that bound q. This is the portion of a lookup the
// HB+-tree offloads to the GPU.
func (t *RegularTree[K]) SearchToLeaf(q K) (leaf int32, line int) {
	idx := t.root
	for h := t.height; h >= 2; h-- {
		c := t.searchNode(t.upper, idx, q)
		idx = int32(t.nodeRefs(t.upper, idx)[c])
	}
	return idx, t.searchNode(t.last, idx, q)
}

// SearchLeafLine finishes a lookup within line c of big leaf b. The
// leaf's delta region is consulted first — the newest append for a key
// wins, and a tombstone is a definitive miss — before the base line's
// SIMD probe.
func (t *RegularTree[K]) SearchLeafLine(b int32, c int, q K) (K, bool) {
	if m := &t.leafMeta[b]; m.ndelta > 0 {
		if v, tomb, ok := t.deltaLookup(b, m, q); ok {
			if tomb {
				return 0, false
			}
			return v, true
		}
	}
	line := t.leafLine(b, c)
	i, found := simd.SearchPairsLine(line, q)
	if !found {
		return 0, false
	}
	return line[2*i+1], true
}

// Lookup finds the value stored under q.
func (t *RegularTree[K]) Lookup(q K) (K, bool) {
	b, c := t.SearchToLeaf(q)
	return t.SearchLeafLine(b, c, q)
}

// LookupInstrumented performs a lookup reporting each cache-line touch
// (three per upper node, two per last-level node, one leaf line) to the
// memory-hierarchy simulator.
func (t *RegularTree[K]) LookupInstrumented(q K, h mem.Toucher) (K, bool) {
	sz := int64(keys.Size[K]())
	lineB := int64(keys.LineBytes)
	idx := t.root
	for lvl := t.height; lvl >= 2; lvl-- {
		base := t.upperSeg.Addr(int64(idx) * int64(t.nodeSlots) * sz)
		h.Touch(base, t.upperSeg.Kind) // index line
		s := simd.Search(t.cfg.NodeSearch, t.indexLine(t.upper, idx), q)
		if s >= t.kpl {
			s = t.kpl - 1
		}
		h.Touch(base+int64(1+s)*lineB, t.upperSeg.Kind) // key line
		u := simd.Search(t.cfg.NodeSearch, t.keyLine(t.upper, idx, s), q)
		if u >= t.kpl {
			u = t.kpl - 1
		}
		h.Touch(base+int64(1+t.kpl+s)*lineB, t.upperSeg.Kind) // ref line
		idx = int32(t.nodeRefs(t.upper, idx)[s*t.kpl+u])
	}
	base := t.lastSeg.Addr(int64(idx) * int64(t.nodeSlots) * sz)
	h.Touch(base, t.lastSeg.Kind)
	s := simd.Search(t.cfg.NodeSearch, t.indexLine(t.last, idx), q)
	if s >= t.kpl {
		s = t.kpl - 1
	}
	h.Touch(base+int64(1+s)*lineB, t.lastSeg.Kind)
	u := simd.Search(t.cfg.NodeSearch, t.keyLine(t.last, idx, s), q)
	if u >= t.kpl {
		u = t.kpl - 1
	}
	c := s*t.kpl + u
	h.Touch(t.leafSeg.Addr((int64(idx)*int64(t.leafSlots)+int64(c*t.kpl))*sz), t.leafSeg.Kind)
	return t.SearchLeafLine(idx, c, q)
}

// RangeQuery returns up to count pairs with key >= start in key order,
// scanning the packed big leaves through the sibling chain. Leaves
// carrying delta entries are merged on the fly (delta.go), so the scan
// stays globally ordered with tombstones suppressed.
func (t *RegularTree[K]) RangeQuery(start K, count int, out []keys.Pair[K]) []keys.Pair[K] {
	b, c := t.SearchToLeaf(start)
	return t.rangeFrom(b, c, start, count, out)
}

// rangeFrom is the shared leaf-chain walk of RangeQuery and
// RangeFromRef, starting at leaf line c of big leaf b.
func (t *RegularTree[K]) rangeFrom(b int32, c int, start K, count int, out []keys.Pair[K]) []keys.Pair[K] {
	i, _ := simd.SearchPairsLine(t.leafLine(b, c), start)
	pos := c*t.ppl + i
	first := true
	var s leafScan[K]
	for b != nilRef && len(out) < count {
		m := &t.leafMeta[b]
		np := int(m.npairs)
		data := t.leafPairs(b)
		if m.ndelta == 0 {
			for ; pos < np && len(out) < count; pos++ {
				out = append(out, keys.Pair[K]{Key: data[2*pos], Value: data[2*pos+1]})
			}
		} else {
			t.buildLeafScan(b, &s)
			di := 0
			if first {
				for di < s.n && s.keys[di] < start {
					di++
				}
			}
			for len(out) < count && (pos < np || di < s.n) {
				haveB, haveD := pos < np, di < s.n
				if haveD && (!haveB || s.keys[di] <= data[2*pos]) {
					if haveB && s.keys[di] == data[2*pos] {
						pos++
					}
					if !s.tomb[di] {
						out = append(out, keys.Pair[K]{Key: s.keys[di], Value: s.vals[di]})
					}
					di++
					continue
				}
				out = append(out, keys.Pair[K]{Key: data[2*pos], Value: data[2*pos+1]})
				pos++
			}
			if pos < np || di < s.n {
				return out // count reached mid-leaf
			}
		}
		b = m.next
		pos = 0
		first = false
	}
	return out
}

// Stats reports the tree geometry.
func (t *RegularTree[K]) Stats() Stats {
	sz := int64(keys.Size[K]())
	return Stats{
		NumPairs:      t.numPairs,
		Height:        t.height,
		InnerBytes:    (int64(len(t.upper)) + int64(len(t.last))) * sz,
		LeafBytes:     int64(len(t.leafData)) * sz,
		LinesPerQuery: 3 * t.height,
	}
}

// Height returns H (leaves at height 0, last-level inner nodes at 1).
func (t *RegularTree[K]) Height() int { return t.height }

// Fanout returns F_I of the inner nodes.
func (t *RegularTree[K]) Fanout() int { return t.fanout }

// NumPairs returns the number of stored pairs.
func (t *RegularTree[K]) NumPairs() int { return t.numPairs }

// LeafCapacity returns the pair capacity of one big leaf.
func (t *RegularTree[K]) LeafCapacity() int { return t.leafCap }

// InnerArrays exposes the raw inner pools (the I-segment mirrored to GPU
// memory) together with the node geometry.
func (t *RegularTree[K]) InnerArrays() (upper, last []K, root int32, height, nodeSlots, kpl int) {
	return t.upper, t.last, t.root, t.height, t.nodeSlots, t.kpl
}

// Config returns the build configuration.
func (t *RegularTree[K]) Config() Config { return t.cfg }

// LevelNodeCounts returns the number of inner nodes at each level, root
// first; the last entry is the last-level node count. The cost model
// uses these to size the cache-resident prefix of the I-segment.
func (t *RegularTree[K]) LevelNodeCounts() []int {
	counts := make([]int, t.height)
	if t.height == 1 {
		counts[0] = 1
		return counts
	}
	level := []int32{t.root}
	for h := t.height; h >= 2; h-- {
		counts[t.height-h] = len(level)
		next := make([]int32, 0, len(level)*t.fanout)
		for _, u := range level {
			rs := t.nodeRefs(t.upper, u)
			n := int(t.upperMeta[u].nchild)
			for j := 0; j < n; j++ {
				next = append(next, int32(rs[j]))
			}
		}
		level = next
	}
	counts[t.height-1] = len(level)
	return counts
}

// WalkToHeight descends from the root until reaching a node of the given
// height (>= 1) and returns its index — in the upper pool for heights
// >= 2, in the last-level pool for height 1. It is the CPU's share of a
// load-balanced lookup (Section 5.5).
func (t *RegularTree[K]) WalkToHeight(q K, stopHeight int) int32 {
	if stopHeight < 1 {
		stopHeight = 1
	}
	idx := t.root
	for h := t.height; h > stopHeight && h >= 2; h-- {
		c := t.searchNode(t.upper, idx, q)
		idx = int32(t.nodeRefs(t.upper, idx)[c])
	}
	return idx
}

// Segments returns the simulated address ranges of the upper-inner,
// last-level-inner and leaf pools (for memory-hierarchy instrumentation).
func (t *RegularTree[K]) Segments() (upperSeg, lastSeg, leafSeg mem.Segment) {
	return t.upperSeg, t.lastSeg, t.leafSeg
}

// LookupScanAblation performs a lookup that ignores the index line and
// scans the node's full separator array instead — the ablation baseline
// quantifying the three-line node search of Figure 2(c). Only benchmarks
// use it.
func (t *RegularTree[K]) LookupScanAblation(q K) (K, bool) {
	idx := t.root
	for h := t.height; h >= 2; h-- {
		c := simd.SearchLinear(t.nodeKeys(t.upper, idx), q)
		if c >= t.fanout {
			c = t.fanout - 1
		}
		idx = int32(t.nodeRefs(t.upper, idx)[c])
	}
	c := simd.SearchLinear(t.nodeKeys(t.last, idx), q)
	if c >= t.fanout {
		c = t.fanout - 1
	}
	return t.SearchLeafLine(idx, c, q)
}

// RangeFromRef scans up to count pairs with key >= start beginning at
// leaf line c of big leaf b (as resolved by a GPU inner traversal),
// without touching the I-segment — the CPU stage of a hybrid range
// query.
func (t *RegularTree[K]) RangeFromRef(b int32, c int, start K, count int, out []keys.Pair[K]) []keys.Pair[K] {
	if b < 0 || int(b) >= len(t.leafMeta) || c < 0 || c >= t.fanout {
		return out
	}
	return t.rangeFrom(b, c, start, count, out)
}
