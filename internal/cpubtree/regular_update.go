package cpubtree

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hbtree/internal/keys"
	"hbtree/internal/simd"
)

// Op is one entry of a batch-update workload: an insert/overwrite of
// (Key, Value) or a delete of Key.
type Op[K keys.Key] struct {
	Key    K
	Value  K
	Delete bool
}

// ErrSentinelKey is returned when a caller tries to store the reserved
// MAX key.
var ErrSentinelKey = fmt.Errorf("cpubtree: key MAX is reserved as sentinel")

// Insert stores (k, v), overwriting the value if k already exists. It
// reports whether the operation changed the tree structure (a leaf or
// inner-node split), which the HB+-tree uses to decide how much of the
// I-segment must be re-synchronised to the GPU.
func (t *RegularTree[K]) Insert(k, v K) (structural bool, err error) {
	t.ensurePrivate()
	if k == keys.Max[K]() {
		return false, ErrSentinelKey
	}
	b := t.descendUpper(k)
	if added, ok := t.leafInsert(b, k, v); ok {
		if added {
			t.numPairs++
		}
		return false, nil
	}
	// Leaf full: split, then insert into the correct half.
	nb := t.splitLeaf(b)
	if k > t.leafMaxKey(b) {
		b = nb
	}
	if _, ok := t.leafInsert(b, k, v); !ok {
		panic("cpubtree: insert failed after leaf split")
	}
	t.numPairs++
	return true, nil
}

// Delete removes k. It reports whether the key was found and whether the
// removal changed the tree structure (an emptied leaf was unlinked).
func (t *RegularTree[K]) Delete(k K) (found, structural bool) {
	t.ensurePrivate()
	b := t.descendUpper(k)
	found, emptied := t.leafDelete(b, k)
	if !found {
		return false, false
	}
	t.numPairs--
	if emptied {
		t.removeLeaf(b)
		return true, true
	}
	return true, false
}

// leafMaxKey returns the largest stored key of big leaf b (the leaf must
// be non-empty).
func (t *RegularTree[K]) leafMaxKey(b int32) K {
	r := t.leaf(b)
	return r.data[2*(r.npairs-1)]
}

// leafInsert inserts (k, v) into big leaf b, shifting the packed tail,
// after writeLeaf has given the leaf its own compacted slots. It reports
// whether k was absent, and ok false when the leaf is full (a split is
// required); an overwrite of an existing key always succeeds.
func (t *RegularTree[K]) leafInsert(b int32, k, v K) (added, ok bool) {
	r := t.writeLeaf(b)
	data := r.data
	np := int(r.npairs)
	pos := sort.Search(np, func(i int) bool { return data[2*i] >= k })
	if pos < np && data[2*pos] == k {
		data[2*pos+1] = v
		return false, true
	}
	if np == t.leafCap {
		return false, false
	}
	copy(data[2*(pos+1):2*(np+1)], data[2*pos:2*np])
	data[2*pos] = k
	data[2*pos+1] = v
	r.npairs = int32(np + 1)
	t.refreshLastKeys(b)
	return true, true
}

// leafDelete removes k from big leaf b. It reports whether k was
// present and whether the leaf became empty. A leaf is rewritten
// (writeLeaf) only when k is present, so a delete that misses changes
// nothing, not even a delta region.
func (t *RegularTree[K]) leafDelete(b int32, k K) (found, emptied bool) {
	pg, j := t.lastAt(b)
	c := t.searchNode(pg, j, k)
	if t.leaf(b).ndelta > 0 {
		if _, ok := t.SearchLeafLine(b, c, k); !ok {
			return false, false
		}
		t.writeLeaf(b) // compacts: k is now a base pair
		pg, j = t.lastAt(b)
		c = t.searchNode(pg, j, k)
	}
	i, ok := simd.SearchPairsLine(t.leafLine(b, c), k)
	if !ok {
		return false, false
	}
	pos := c*t.ppl + i
	r := t.writeLeaf(b)
	data := r.data
	np := int(r.npairs)
	copy(data[2*pos:2*(np-1)], data[2*(pos+1):2*np])
	data[2*(np-1)] = keys.Max[K]()
	data[2*(np-1)+1] = 0
	np--
	r.npairs = int32(np)
	if np == 0 {
		return true, true
	}
	t.refreshLastKeys(b)
	return true, false
}

// splitLeaf splits big leaf b, moving the upper half of its pairs into a
// fresh leaf that is linked after b and registered with b's parent. It
// returns the new leaf's index. b must have been through writeLeaf.
func (t *RegularTree[K]) splitLeaf(b int32) int32 {
	nb := t.allocLast()
	lr, nr := t.leaf(b), t.leaf(nb)
	np := int(lr.npairs)
	lo := np / 2
	src, dst := lr.data, nr.data
	copy(dst, src[2*lo:2*np])
	maxK := keys.Max[K]()
	for i := lo; i < np; i++ {
		src[2*i] = maxK
		src[2*i+1] = 0
	}
	lr.npairs = int32(lo)
	nr.npairs = int32(np - lo)

	// Sibling chain.
	nxt := lr.next
	nr.next = nxt
	nr.prev = b
	lr.next = nb
	if nxt != nilRef {
		t.leaf(nxt).prev = nb
	} else {
		t.tailLeaf = nb
	}

	t.refreshLastKeys(b)
	t.refreshLastKeys(nb)
	t.insertIntoParent(b, nb, t.leafMaxKey(b), true)
	return nb
}

// setParent updates the parent pointer of a child living in the last or
// upper pool.
func (t *RegularTree[K]) setParent(child int32, childInLast bool, p int32) {
	if childInLast {
		t.lastMeta[child].parent = p
	} else {
		t.upperMeta[child].parent = p
	}
}

func (t *RegularTree[K]) parentOf(child int32, childInLast bool) int32 {
	if childInLast {
		return t.lastMeta[child].parent
	}
	return t.upperMeta[child].parent
}

// childPos finds the position of child within upper node u by scanning
// its reference slots (at most F_I entries, three cache lines' worth).
func (t *RegularTree[K]) childPos(u, child int32) int {
	rs := t.nodeRefs(t.upper, u)
	n := int(t.upperMeta[u].nchild)
	for j := 0; j < n; j++ {
		if int32(rs[j]) == child {
			return j
		}
	}
	panic("cpubtree: child not found in parent")
}

// insertIntoParent registers right as the new sibling following left
// after a split. leftMax is left's new subtree maximum; right inherits
// left's old separator. childInLast says which pool the siblings live in.
func (t *RegularTree[K]) insertIntoParent(left, right int32, leftMax K, childInLast bool) {
	t.upperW()
	p := t.parentOf(left, childInLast)
	if p == nilRef {
		// left was the root: grow the tree by one level.
		nr := t.allocUpper()
		ks := t.nodeKeys(t.upper, nr)
		rs := t.nodeRefs(t.upper, nr)
		ks[0] = leftMax
		rs[0] = K(left)
		rs[1] = K(right)
		t.upperMeta[nr].nchild = 2
		t.refreshIndexLine(t.upper, nr)
		t.setParent(left, childInLast, nr)
		t.setParent(right, childInLast, nr)
		t.root = nr
		t.height++
		return
	}
	if int(t.upperMeta[p].nchild) == t.fanout {
		t.splitUpper(p, childInLast)
		p = t.parentOf(left, childInLast) // may have moved to the new half
	}
	n := int(t.upperMeta[p].nchild)
	pos := t.childPos(p, left)
	ks := t.nodeKeys(t.upper, p)
	rs := t.nodeRefs(t.upper, p)
	// Shift separators (slots 0..n-2 are real; slot n-1 is the MAX
	// catch-all that now becomes a real separator slot) and references.
	for j := n - 1; j > pos; j-- {
		ks[j] = ks[j-1]
	}
	ks[pos] = leftMax
	for j := n; j > pos+1; j-- {
		rs[j] = rs[j-1]
	}
	rs[pos+1] = K(right)
	t.upperMeta[p].nchild = int32(n + 1)
	t.refreshIndexLine(t.upper, p)
	t.setParent(right, childInLast, p)
}

// splitUpper splits a full upper node, moving its upper half of children
// into a fresh node. grandchildrenInLast says which pool u's children
// live in (needed to fix their parent pointers).
func (t *RegularTree[K]) splitUpper(u int32, grandchildrenInLast bool) {
	n := int(t.upperMeta[u].nchild)
	lo := n / 2
	nu := t.allocUpper()
	ks := t.nodeKeys(t.upper, u)
	rs := t.nodeRefs(t.upper, u)
	nks := t.nodeKeys(t.upper, nu)
	nrs := t.nodeRefs(t.upper, nu)

	// u keeps children 0..lo-1; its new last-child slot (lo-1) becomes
	// the MAX catch-all and the displaced separator becomes u's subtree
	// maximum reported to the parent.
	leftMax := ks[lo-1]
	maxK := keys.Max[K]()
	copy(nks[:n-lo], ks[lo:n]) // separators lo..n-2 plus the old MAX slot
	copy(nrs[:n-lo], rs[lo:n])
	for j := lo - 1; j < n; j++ {
		ks[j] = maxK
	}
	for j := lo; j < n; j++ {
		rs[j] = 0
	}
	t.upperMeta[u].nchild = int32(lo)
	t.upperMeta[nu].nchild = int32(n - lo)
	for j := 0; j < n-lo; j++ {
		t.setParent(int32(nrs[j]), grandchildrenInLast, nu)
	}
	t.refreshIndexLine(t.upper, u)
	t.refreshIndexLine(t.upper, nu)
	t.insertIntoParent(u, nu, leftMax, false)
}

// removeLeaf unlinks an emptied big leaf from the sibling chain and its
// parent, freeing the paired last-level node. The final leaf of the tree
// is never removed so that lookups always have a valid root path.
func (t *RegularTree[K]) removeLeaf(b int32) {
	p := t.lastMeta[b].parent
	if p == nilRef {
		// b's node is the root (height 1): keep the empty leaf.
		t.refreshLastKeys(b)
		return
	}
	prev, next := t.leaf(b).prev, t.leaf(b).next
	if prev != nilRef {
		t.leaf(prev).next = next
	} else {
		t.headLeaf = next
	}
	if next != nilRef {
		t.leaf(next).prev = prev
	} else {
		t.tailLeaf = prev
	}
	t.freeLast = append(t.freeLast, b)
	t.removeChild(p, b, true)
}

// removeChild deletes child from upper node u, cascading upwards when u
// empties and collapsing the root when it has a single child left.
func (t *RegularTree[K]) removeChild(u, child int32, childInLast bool) {
	t.upperW()
	n := int(t.upperMeta[u].nchild)
	pos := t.childPos(u, child)
	ks := t.nodeKeys(t.upper, u)
	rs := t.nodeRefs(t.upper, u)
	// Drop separator pos (the boundary after the removed child) and the
	// child's reference; the MAX catch-all moves down one slot.
	for j := pos; j < n-2; j++ {
		ks[j] = ks[j+1]
	}
	if n >= 2 {
		ks[n-2] = keys.Max[K]()
	}
	for j := pos; j < n-1; j++ {
		rs[j] = rs[j+1]
	}
	rs[n-1] = 0
	n--
	t.upperMeta[u].nchild = int32(n)
	t.refreshIndexLine(t.upper, u)

	if n == 0 {
		p := t.upperMeta[u].parent
		t.freeUpper = append(t.freeUpper, u)
		if p != nilRef {
			t.removeChild(p, u, false)
		}
		return
	}
	if u == t.root && n == 1 && t.height >= 2 {
		// Collapse the root.
		c := int32(rs[0])
		t.root = c
		t.height--
		t.setParent(c, t.height == 1, nilRef)
		t.freeUpper = append(t.freeUpper, u)
	}
}

// BatchResult summarises one batch-update execution for the HB+-tree's
// I-segment synchronisation logic (Section 5.6).
type BatchResult struct {
	Applied      int     // operations applied
	NotFound     int     // deletes whose key was absent
	Structural   int     // operations that required splits/merges
	DirtyLast    []int32 // last-level nodes modified in place
	UpperChanged bool    // upper levels changed (structural phase ran)
}

// updateGroupSize is the group granularity of the asynchronous parallel
// update method ("processed in groups of size 16K", Section 5.6).
const updateGroupSize = 16 * 1024

// lockStripes is the size of the striped lock table guarding last-level
// inner nodes during parallel updates. A stripe covers whole last-level
// pages (lockOf), since a write may copy its node's page.
const lockStripes = 256

// lockOf returns the stripe of locks guarding last-level node b.
func lockOf(locks *[lockStripes]sync.Mutex, b int32) *sync.Mutex {
	return &locks[int(b>>lastPageBits)&(lockStripes-1)]
}

// ApplyBatchParallel executes a batch of update operations with the
// paper's asynchronous parallel method (Section 5.6): worker threads
// resolve each query down to its last-level inner node, take that node's
// lock and apply the modification when no split or merge is needed; the
// remaining structural queries are executed afterwards by a single
// thread. The result lists every modified last-level node so the caller
// can re-synchronise the GPU replica.
func (t *RegularTree[K]) ApplyBatchParallel(ops []Op[K], threads int) BatchResult {
	t.ensurePrivate() // before the workers: it may copy record pages
	if threads <= 0 {
		threads = t.cfg.Threads
	}
	var res BatchResult
	dirty := make(map[int32]struct{})
	for start := 0; start < len(ops); start += updateGroupSize {
		end := start + updateGroupSize
		if end > len(ops) {
			end = len(ops)
		}
		t.applyGroup(ops[start:end], threads, &res, dirty)
	}
	res.DirtyLast = make([]int32, 0, len(dirty))
	for b := range dirty {
		res.DirtyLast = append(res.DirtyLast, b)
	}
	sort.Slice(res.DirtyLast, func(i, j int) bool { return res.DirtyLast[i] < res.DirtyLast[j] })
	return res
}

func (t *RegularTree[K]) applyGroup(ops []Op[K], threads int, res *BatchResult, dirty map[int32]struct{}) {
	var locks [lockStripes]sync.Mutex
	var cursor atomic.Int64
	var pending []Op[K] // structural leftovers
	var pendingMu sync.Mutex
	workerDirty := make([][]int32, threads)
	var np atomic.Int64 // numPairs delta from the parallel phase
	var notFound atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := cursor.Add(1) - 1
				if int(i) >= len(ops) {
					return
				}
				op := ops[i]
				// Descend the (immutable, this phase) upper levels.
				b := t.descendUpper(op.Key)
				lk := lockOf(&locks, b)
				lk.Lock()
				switch {
				case op.Delete:
					found, emptied := t.leafDelete(b, op.Key)
					switch {
					case !found:
						notFound.Add(1)
					case emptied:
						// Leaf would empty: undo is unnecessary (the
						// leaf is already empty) but unlinking is
						// structural; defer it.
						np.Add(-1)
						workerDirty[w] = append(workerDirty[w], b)
						pendingMu.Lock()
						pending = append(pending, Op[K]{Key: op.Key, Delete: true, Value: K(b)})
						pendingMu.Unlock()
					default:
						np.Add(-1)
						workerDirty[w] = append(workerDirty[w], b)
					}
				default:
					if added, ok := t.leafInsert(b, op.Key, op.Value); ok {
						if added {
							np.Add(1)
						}
						workerDirty[w] = append(workerDirty[w], b)
					} else {
						// Full leaf: split needed, defer to the
						// single-threaded structural phase.
						pendingMu.Lock()
						pending = append(pending, op)
						pendingMu.Unlock()
					}
				}
				lk.Unlock()
			}
		}(w)
	}
	wg.Wait()

	t.numPairs += int(np.Load())
	res.NotFound += int(notFound.Load())
	res.Applied += len(ops) - len(pending) - int(notFound.Load())
	for _, d := range workerDirty {
		for _, b := range d {
			dirty[b] = struct{}{}
		}
	}

	// Structural phase: single-threaded, as in the paper ("the remaining
	// unresolved queries are processed subsequently using a single
	// thread").
	freed := make(map[int32]struct{})
	for _, op := range pending {
		if op.Delete {
			// The pair itself was already removed in the parallel
			// phase; unlink the emptied leaf unless a concurrent
			// insert refilled it or another delete already freed it.
			b := int32(op.Value)
			res.Applied++
			if _, done := freed[b]; done || t.leaf(b).npairs != 0 {
				continue
			}
			freed[b] = struct{}{}
			t.removeLeaf(b)
			res.Structural++
			res.UpperChanged = true
			continue
		}
		structural, err := t.Insert(op.Key, op.Value)
		if err != nil {
			continue
		}
		res.Applied++
		if structural {
			res.Structural++
			res.UpperChanged = true
		}
	}
}

// descendUpper walks the upper levels only, returning the last-level
// node for q. Upper nodes are immutable during the parallel phase, so
// this needs no locks.
func (t *RegularTree[K]) descendUpper(q K) int32 {
	idx := t.root
	for h := t.height; h >= 2; h-- {
		c := t.searchNode(t.upper, idx, q)
		idx = int32(t.nodeRefs(t.upper, idx)[c])
	}
	return idx
}

// contains reports whether leaf m's base pairs hold k.
func (t *RegularTree[K]) contains(m *leafRec[K], k K) bool {
	data := m.data
	np := int(m.npairs)
	pos := sort.Search(np, func(i int) bool { return data[2*i] >= k })
	return pos < np && data[2*pos] == k
}

// ApplyBatchSequential executes a batch with a single thread, the
// baseline of Figure 13(a).
func (t *RegularTree[K]) ApplyBatchSequential(ops []Op[K]) BatchResult {
	t.ensurePrivate()
	var res BatchResult
	dirty := make(map[int32]struct{})
	for _, op := range ops {
		if op.Delete {
			b := t.descendUpper(op.Key)
			found, structural := t.Delete(op.Key)
			if !found {
				res.NotFound++
				continue
			}
			res.Applied++
			if structural {
				res.Structural++
				res.UpperChanged = true
			} else {
				dirty[b] = struct{}{}
			}
			continue
		}
		b := t.descendUpper(op.Key)
		structural, err := t.Insert(op.Key, op.Value)
		if err != nil {
			continue
		}
		res.Applied++
		if structural {
			res.Structural++
			res.UpperChanged = true
		} else {
			dirty[b] = struct{}{}
		}
	}
	for b := range dirty {
		res.DirtyLast = append(res.DirtyLast, b)
	}
	sort.Slice(res.DirtyLast, func(i, j int) bool { return res.DirtyLast[i] < res.DirtyLast[j] })
	return res
}
