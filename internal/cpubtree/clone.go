package cpubtree

import (
	"unsafe"

	"hbtree/internal/keys"
)

// Snapshot cloning for the serving layer's RCU-style reader/writer
// split: a batch update clones the current tree, mutates the clone, and
// publishes it atomically, so in-flight readers keep traversing the old
// version untouched. An implicit tree is never written after its build,
// so its clone shares every array; a regular clone copies its
// metadata, leaf records and page tables and shares its leaf data,
// last-level pages and upper pool copy-on-write (cow.go). The Config (including
// the simulated address-space allocator) and the segment descriptors
// are shared, since a snapshot is a logical sibling of the same index,
// not a second index.

// Clone returns a copy of the tree. The implicit tree is static — its
// only update, Rebuild, replaces the receiver's fields with a fresh
// build — so the copy shares the node and leaf arrays, and nothing
// done to one tree is visible in the other.
func (t *ImplicitTree[K]) Clone() *ImplicitTree[K] {
	c := *t
	return &c
}

// Clone returns a copy of the tree that accepts structural updates;
// updates applied to one are invisible to the other. It copies the
// metadata, the free lists, the leaf records and the last-level page
// table, not the leaf data, the last-level pages or the upper pool:
// those stay shared copy-on-write (cow.go), and the clone takes
// over t's append right, so its in-place successors append where t's
// would have. Leaves whose delta region is at least half full are
// compacted into private copies; the others keep their deltas until a
// structural update rewrites them, which compacts first. This is the
// clone-fallback entry point of the in-place update path.
func (t *RegularTree[K]) Clone() *RegularTree[K] {
	c := t.copyTree(t.share())
	for b := int32(0); int(b) < c.nleaves; b++ {
		if r := c.leaf(b); c.halfFull(r) {
			c.compactLeaf(b, r)
		}
	}
	return c
}

// compacted returns a private copy of t with every delta region
// compacted and no right on t's leaves: the image WriteTo writes.
func (t *RegularTree[K]) compacted() *RegularTree[K] {
	now := cowClock.Add(1)
	c := t.copyTree(now, now)
	for b := int32(0); int(b) < c.nleaves; b++ {
		if r := c.leaf(b); r.ndelta > 0 {
			c.compactLeaf(b, r)
		}
	}
	return c
}

// CloneFootprint reports what one Clone() of this tree and the
// structural write after it copy: the inner nodes copied (the upper pool
// and the last-level pages Clone writes) and the bytes of the upper
// pool, the node metadata, the leaf
// records and both page tables, the free lists, and the leaves whose
// delta region Clone compacts with the last-level pages holding them.
// Leaf data and the last-level pages Clone does not write are shared,
// not copied, so a clone of a tree with few full delta regions costs
// about a fortieth of the leaf pool for 64-bit keys.
func (t *RegularTree[K]) CloneFootprint() (nodes int, bytes int64) {
	sz := int64(keys.Size[K]())
	nodes = len(t.upperMeta)
	bytes = int64(len(t.upper)) * sz
	bytes += int64(len(t.upperMeta))*8 + int64(len(t.lastMeta))*8
	bytes += int64(t.nleaves)*int64(unsafe.Sizeof(leafRec[K]{})) + int64(len(t.pages))*int64(unsafe.Sizeof([]leafRec[K]{}))
	bytes += int64(len(t.last)) * int64(unsafe.Sizeof([]K{})+8)
	bytes += (int64(len(t.freeLast)) + int64(len(t.freeUpper))) * 4
	lastPage := int32(-1)
	for b := int32(0); int(b) < t.nleaves; b++ {
		if !t.halfFull(t.leaf(b)) {
			continue
		}
		bytes += int64(t.leafSlots) * sz
		if p := b >> lastPageBits; p != lastPage {
			pg, _ := t.lastAt(b)
			nodes += len(pg) / t.nodeSlots
			bytes += int64(LastPageNodes*t.nodeSlots) * sz
			lastPage = p
		}
	}
	return nodes, bytes
}
