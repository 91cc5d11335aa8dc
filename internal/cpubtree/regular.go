package cpubtree

import (
	"fmt"
	"sync"
	"sync/atomic"

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
//     nodes and big leaves share one index, so the lookup retrieves the
//     target leaf cache line directly from the last inner node's index
//     and search result. A big leaf's slots and info line are reached
//     through its record (cow.go), one page-table load away, and so is a
//     last-level node, in pages of LastPageNodes: trees of one lineage
//     share leaves and last-level pages copy-on-write.
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

	upper      []K // inner nodes at height >= 2
	upperStamp uint64
	upperMeta  []nodeMeta

	// Last-level inner nodes (height 1), index-paired with big leaves,
	// in pages of LastPageNodes behind a page table (cow.go); lastStamp
	// holds each page's stamp.
	last      [][]K
	lastStamp []uint64
	lastMeta  []nodeMeta

	// Big leaves: one record per leaf (cow.go) in pages of leafPageSize.
	// Bulk load and ReadRegular cut every leaf's slots from leafPool and
	// every record from recPool; their headroom takes later leaves.
	pages    [][]leafRec[K]
	nleaves  int
	leafPool []K
	recPool  []leafRec[K]

	freeLast  []int32
	freeUpper []int32

	headLeaf, tailLeaf int32 // leaf-chain ends for ordered scans

	// sharedPools marks a delta fork (ForkDelta): the inner pools belong
	// to the ancestor chain and structural mutation must panic.
	sharedPools bool

	// Ownership (cow.go): the append floor (allocated with the tree,
	// regularBox), the birth, the rewrite stamp ensurePrivate last
	// established, the stamp of the pools' headroom and the inner floor
	// the device replica's last mirror or sync raised.
	app                           *atomic.Uint64
	born, owned, poolStamp, inner uint64

	upperSeg, lastSeg, leafSeg mem.Segment
}

// nodeMeta is the cold fragment of an inner node (Section 4.1's node
// fragmentation): size and parent/sibling references kept off the search
// path in a pool sharing the node's index.
type nodeMeta struct {
	nchild int32
	parent int32 // index into the upper pool; -1 for the root
}

const nilRef = int32(-1)

// BuildRegular bulk-loads a regular tree from sorted, distinct pairs.
func BuildRegular[K keys.Key](pairs []keys.Pair[K], cfg Config) (*RegularTree[K], error) {
	cfg.fillDefaults()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("cpubtree: empty dataset")
	}
	t := newRegular[K](cfg)
	if bad := t.bulkLoad(pairs); bad >= 0 {
		return nil, fmt.Errorf("cpubtree: pairs not sorted/distinct at %d", bad)
	}
	if pairs[len(pairs)-1].Key == keys.Max[K]() {
		return nil, fmt.Errorf("cpubtree: key MAX is reserved as sentinel")
	}
	t.allocSegments()
	return t, nil
}

// newRegular returns an empty tree with K's node geometry.
func newRegular[K keys.Key](cfg Config) *RegularTree[K] {
	kpl := keys.PerLine[K]()
	bx := &regularBox[K]{t: RegularTree[K]{
		cfg:       cfg,
		kpl:       kpl,
		fanout:    kpl * kpl,
		ppl:       kpl / 2,
		nodeSlots: kpl * (1 + 2*kpl),
	}}
	t := &bx.t
	t.app = &bx.app
	t.leafCap = t.fanout * t.ppl
	t.leafSlots = t.fanout * t.kpl
	return t
}

// allocSegments registers the pools with the simulated address space.
func (t *RegularTree[K]) allocSegments() {
	sz := int64(keys.Size[K]())
	t.upperSeg = t.cfg.Alloc.Alloc(int64(len(t.upper))*sz, t.cfg.ISegPages)
	t.lastSeg = t.cfg.Alloc.Alloc(int64(len(t.lastMeta)*t.nodeSlots)*sz, t.cfg.ISegPages)
	t.leafSeg = t.cfg.Alloc.Alloc(int64(t.nleaves)*int64(t.leafSlots)*sz, t.cfg.LSegPages)
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
	off := c * t.kpl
	return t.leaf(b).data[off : off+t.kpl]
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
	pg, i := t.lastW(b)
	t.setLastKeys(b, pg, i)
}

// setLastKeys is refreshLastKeys on node b, slot i of the writable page
// pg.
func (t *RegularTree[K]) setLastKeys(b int32, pg []K, i int32) {
	maxK := keys.Max[K]()
	ks := t.nodeKeys(pg, i)
	r := t.leaf(b)
	np := int(r.npairs)
	used := (np + t.ppl - 1) / t.ppl
	if used < 1 {
		used = 1
	}
	data := r.data
	for c := 0; c < t.fanout; c++ {
		if c < used-1 {
			ks[c] = data[2*((c+1)*t.ppl-1)]
		} else {
			ks[c] = maxK
		}
	}
	t.lastMeta[b].nchild = int32(used)
	t.refreshIndexLine(pg, i)
}

// --- allocation -----------------------------------------------------

// reserve is the one capacity rule of the flat pools: a pool of n nodes
// is allocated with room for n/32 more (at least one), so the splits
// after a build, a load or a clone append in place instead of copying
// the pool. Bulk load, ReadRegular, Clone and upperW size through it.
// The headroom is small because every live tree carries it and the
// garbage collector's heap goal doubles it: n/8 put wire-mixed-durable's
// peak RSS about 10 % above the append-grown pools', at its bound. The
// clone path copies the upper pool, the node metadata and the leaf
// records, never the leaf data or a last-level page it does not write,
// so the headroom costs it a thirty-second of those. The paged
// last-level pool needs no headroom: its last page has room to the
// page's end, and a new page takes the nodes after that.
func reserve(n int) int {
	return n + max(n/32, 1)
}

// makePool returns a zeroed pool of n nodes of per slots each, with
// capacity for reserve(n) nodes.
func makePool[T any](n, per int) []T {
	return make([]T, n*per, reserve(n)*per)
}

// allocLast returns a cleared last-level node and its big leaf, which
// gets fresh slots: a freed leaf's old slots may still be read by
// another tree.
func (t *RegularTree[K]) allocLast() int32 {
	var idx int32
	if n := len(t.freeLast); n > 0 {
		idx = t.freeLast[n-1]
		t.freeLast = t.freeLast[:n-1]
	} else {
		idx = int32(len(t.lastMeta))
		t.addLastNode()
		t.lastMeta = append(t.lastMeta, nodeMeta{parent: nilRef})
		t.addLeafRec()
	}
	pg, i := t.lastW(idx)
	t.clearNode(pg, i)
	t.clearLeaf(idx, t.newLeafData())
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

// clearLeaf makes data, zeroed slots, the empty big leaf b.
func (t *RegularTree[K]) clearLeaf(b int32, data []K) {
	maxK := keys.Max[K]()
	for i := 0; i < len(data); i += 2 {
		data[i] = maxK
	}
	*t.leaf(b) = leafRec[K]{data: data, stamp: t.owned, next: nilRef, prev: nilRef}
	t.lastMeta[b] = nodeMeta{parent: nilRef, nchild: 1}
}

// --- bulk load ------------------------------------------------------

// bulkLoad builds the tree in one sized pass. It counts the leaves and
// upper nodes first and allocates every pool once, then fills each big
// leaf and its paired last-level node over contiguous leaf ranges across
// the configured workers, checking key order within each range and
// against the pair just before it. The upper levels are built last from
// the recorded leaf maxima. It returns the first index i whose pair does
// not exceed pair i-1, or -1 when the pairs are sorted and distinct; the
// tree and the result are the same at every thread count.
func (t *RegularTree[K]) bulkLoad(pairs []keys.Pair[K]) (bad int) {
	t.numPairs = len(pairs)
	perLeaf := min(max(int(float64(t.leafCap)*t.cfg.LeafFill), 1), t.leafCap)
	perNode := min(max(int(float64(t.fanout)*t.cfg.LeafFill), 2), t.fanout)
	numLeaves := (len(pairs) + perLeaf - 1) / perLeaf
	numUpper := 0
	for n := numLeaves; n > 1; {
		n = (n + perNode - 1) / perNode
		numUpper += n
	}

	t.initRights()
	t.last, t.lastStamp = t.pageLast(make([]K, numLeaves*t.nodeSlots, lastPoolCap(numLeaves, t.nodeSlots)))
	t.lastMeta = makePool[nodeMeta](numLeaves, 1)
	t.leafPool = makePool[K](numLeaves, t.leafSlots)
	t.recPool = makePool[leafRec[K]](numLeaves, 1)
	t.nleaves = numLeaves
	t.pages = pageLeaves(t.recPool)
	t.upper = make([]K, 0, reserve(numUpper)*t.nodeSlots)
	t.upperMeta = make([]nodeMeta, 0, reserve(numUpper))

	leafMax := make([]K, numLeaves)
	bad = len(pairs)
	var mu sync.Mutex
	parallelFor(numLeaves, t.cfg.Threads, func(ls, le int) {
		if i := t.fillLeaves(pairs, perLeaf, leafMax, ls, le); i >= 0 {
			mu.Lock()
			bad = min(bad, i)
			mu.Unlock()
		}
	})
	if bad < len(pairs) {
		return bad
	}
	t.headLeaf, t.tailLeaf = 0, int32(numLeaves-1)
	t.buildUpper(leafMax, perNode)
	return -1
}

// fillLeaves builds big leaves [ls, le) and their paired last-level
// nodes: leaf l takes pairs [l*perLeaf, (l+1)*perLeaf), is linked to its
// neighbours in the leaf chain, and records its maximum key in leafMax.
// It returns the first index in the leaves' pairs that is out of order,
// or -1; on a disorder the leaves are left partly built, since the tree
// is discarded. The pools are freshly zeroed, so the padding's values
// and the last-level nodes' reference slots are left as they are.
func (t *RegularTree[K]) fillLeaves(pairs []keys.Pair[K], perLeaf int, leafMax []K, ls, le int) int {
	maxK := keys.Max[K]()
	var prev K
	if ls > 0 {
		prev = pairs[ls*perLeaf-1].Key
	}
	for l := ls; l < le; l++ {
		start := l * perLeaf
		end := min(start+perLeaf, len(pairs))
		data := t.leafPool[l*t.leafSlots : (l+1)*t.leafSlots : (l+1)*t.leafSlots]
		for j, p := range pairs[start:end] {
			if p.Key <= prev && start+j > 0 {
				return start + j
			}
			prev = p.Key
			data[2*j] = p.Key
			data[2*j+1] = p.Value
		}
		for j := 2 * (end - start); j < len(data); j += 2 {
			data[j] = maxK
		}
		leafMax[l] = prev

		r := leafRec[K]{data: data, stamp: t.owned, npairs: int32(end - start), next: int32(l + 1), prev: int32(l - 1)}
		if l == t.nleaves-1 {
			r.next = nilRef
		}
		*t.leaf(int32(l)) = r
		t.lastMeta[l].parent = nilRef
		// Every page is fresh, so the workers write their nodes in
		// place; writes every key slot and the index line.
		pg, i := t.lastAt(int32(l))
		t.setLastKeys(int32(l), pg, i)
	}
	return -1
}

// buildUpper builds the upper levels bottom-up over the last-level
// nodes, whose subtree maxima are leafMax, perNode children per node.
// The upper pools are pre-sized, so allocUpper appends in place.
func (t *RegularTree[K]) buildUpper(leafMax []K, perNode int) {
	children := make([]int32, len(leafMax))
	for i := range children {
		children[i] = int32(i)
	}
	childMax := leafMax
	t.height = 1
	childrenInLast := true // children currently in the last-level pool?
	for len(children) > 1 {
		n := (len(children) + perNode - 1) / perNode
		nextChildren := make([]int32, 0, n)
		nextMax := make([]K, 0, n)
		for i := 0; i < n; i++ {
			u := t.allocUpper()
			first := i * perNode
			nch := min(len(children)-first, perNode)
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
	s, u := t.searchLines(pool, idx, q)
	return s*t.kpl + u
}

// searchLines searches node idx's index line for the key line to read
// (s) and that key line for the child within it (u), each with
// simd.SearchHierarchical clamped to the line's last slot; the index
// line's last slot is MAX, so its clamp never fires.
func (t *RegularTree[K]) searchLines(pool []K, idx int32, q K) (s, u int) {
	s = min(simd.SearchHierarchical(t.indexLine(pool, idx), q), t.kpl-1)
	u = min(simd.SearchHierarchical(t.keyLine(pool, idx, s), q), t.kpl-1)
	return s, u
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
	pg, i := t.lastAt(idx)
	return idx, t.searchNode(pg, i, q)
}

// SearchLeafLine finishes a lookup within line c of big leaf b. The
// leaf's delta region is consulted first — the newest append for a key
// wins, and a tombstone is a definitive miss — before the base line's
// SIMD probe.
func (t *RegularTree[K]) SearchLeafLine(b int32, c int, q K) (K, bool) {
	r := t.leaf(b)
	if r.ndelta > 0 {
		if v, tomb, ok := t.deltaLookup(r, q); ok {
			if tomb {
				return 0, false
			}
			return v, true
		}
	}
	line := r.data[c*t.kpl : c*t.kpl+t.kpl]
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
	// touch reports node idx's index line, the key line s it selected
	// and, when refs, the reference line, in the order a search reads
	// them.
	touch := func(seg mem.Segment, idx int32, s int, refs bool) {
		base := seg.Addr(int64(idx) * int64(t.nodeSlots) * sz)
		h.Touch(base, seg.Kind)
		h.Touch(base+int64(1+s)*lineB, seg.Kind)
		if refs {
			h.Touch(base+int64(1+t.kpl+s)*lineB, seg.Kind)
		}
	}
	idx := t.root
	for lvl := t.height; lvl >= 2; lvl-- {
		s, u := t.searchLines(t.upper, idx, q)
		touch(t.upperSeg, idx, s, true)
		idx = int32(t.nodeRefs(t.upper, idx)[s*t.kpl+u])
	}
	pg, i := t.lastAt(idx)
	s, u := t.searchLines(pg, i, q)
	touch(t.lastSeg, idx, s, false)
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
		m := t.leaf(b)
		np := int(m.npairs)
		data := m.data
		if m.ndelta == 0 {
			for ; pos < np && len(out) < count; pos++ {
				out = append(out, keys.Pair[K]{Key: data[2*pos], Value: data[2*pos+1]})
			}
		} else {
			t.buildLeafScan(m, &s)
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
		InnerBytes:    int64(len(t.upper)+len(t.lastMeta)*t.nodeSlots) * sz,
		LeafBytes:     int64(t.nleaves) * int64(t.leafSlots) * sz,
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
// memory) together with the node geometry: the upper pool flat, the
// last-level pool as its page table, LastPageNodes nodes to a page.
// Every page but the last is full.
func (t *RegularTree[K]) InnerArrays() (upper []K, last [][]K, root int32, height, nodeSlots, kpl int) {
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
	pg, i := t.lastAt(idx)
	c := simd.SearchLinear(t.nodeKeys(pg, i), q)
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
	if b < 0 || int(b) >= t.nleaves || c < 0 || c >= t.fanout {
		return out
	}
	return t.rangeFrom(b, c, start, count, out)
}
