package cpubtree

import (
	"slices"
	"sync/atomic"

	"hbtree/internal/keys"
)

// Copy-on-write leaves (DESIGN §10). The regular tree keeps one record
// per big leaf — its data slice, pair count, chain links and delta
// state — in pages of leafPageSize records. A delta fork (ForkDelta)
// copies the page table and, as it writes, the pages of the leaves it
// writes; a clone copies the node metadata, every record page and the
// last-level page table, but no leaf data, no last-level page and not
// the upper pool. No two trees write one record page: a fork copies a
// page before its first write to it, and a tree shared since it last
// restructured copies all its pages before it restructures again. Trees
// of one lineage do share leaf data and last-level pages, and one
// ownership rule keeps each reading exactly its own history:
//
//   - Appending. At most one tree may append into a leaf's gap: the
//     newest. ForkDelta and Clone pass that right from their source to
//     their result; a tree without it copies the leaf before appending.
//   - Rewriting. No tree rewrites slots another tree can read.
//     Compaction, a base-region insert or delete and a split copy a
//     shared leaf first.
//
// A copy reads only the slots its tree can read (leafCopy): the gap
// past them may be taking another tree's appends at that moment.
//
// The rule runs on one clock. Every leaf record carries the clock time
// at which its slots were made or last copied (its stamp). A tree holds
// an append floor and its birth time: it may append to a leaf stamped at
// or after its append floor, and rewrite one stamped at or after both.
// Sharing a tree (share) moves the source's append floor to now and
// gives the result the old floor and a birth of now, so the source
// loses every right, the result keeps the append right and no rewrite
// right, and what either copies from then on is stamped past both.
//
// Inner memory follows the rewrite half of the rule, with the device
// replica as one more reader (gpusim.PagedBuffer): every last-level
// page, and the upper pool, carries the clock time it was made or
// copied, and a tree writes it in place only if that stamp is at or
// after both t.owned and the inner floor, which each mirror or sync
// raises to now (ShareInner). Any other page is copied first (lastW,
// upperW), so a write copies the pages it dirties and shares the rest.

// Leaf records sit in pages of leafPageSize; a record is one cache line.
const (
	leafPageBits = 6
	leafPageSize = 1 << leafPageBits
	leafPageMask = leafPageSize - 1
)

// Last-level inner nodes sit in pages of LastPageNodes. Sixteen nodes
// of 64-bit keys make a 17 KiB page: a clone-path write copies a few of
// them where it used to copy the whole pool, and the page table of a
// 2^20-pair tree is under 300 entries. At 2^20 pairs a clone-path write
// allocates 638 KB at 16 nodes a page, as at 8, and 5 % and 15 % more
// at 32 and 64, and a lookup is no faster at any of the other three.
const (
	lastPageBits = 4
	// LastPageNodes is the number of last-level inner nodes to a page of
	// the regular tree's last-level pool and of its device replica.
	LastPageNodes = 1 << lastPageBits
	lastPageMask  = LastPageNodes - 1
)

// cowClock is the ownership clock: each share and each new tree takes
// one tick. Only the order of ticks matters, so one process-wide counter
// serves every lineage.
var cowClock atomic.Uint64

// leafRec is a big leaf's record: its slots, the info line (pair count
// and the sorted leaf chain's sibling links) and the gapped-delta state
// (delta.go) — ndelta append-only entries behind the base pairs, a
// tombstone mask over them and the net live-pair change they carry.
// The delta fields are per epoch: a fork publishes new slot counts on
// its own copy of the record's page while older epochs keep theirs.
type leafRec[K keys.Key] struct {
	data  []K    // leafSlots keys: packed base pairs, then the delta region
	stamp uint64 // clock time data was made or copied
	tomb  uint64 // bit j set: delta entry j is a tombstone

	npairs int32
	next   int32
	prev   int32
	ndelta int32 // delta entries appended behind the base pairs
	nlive  int32 // net live-pair delta: live(b) = npairs + nlive
}

// leaf returns big leaf b's record.
func (t *RegularTree[K]) leaf(b int32) *leafRec[K] {
	return &t.pages[b>>leafPageBits][b&leafPageMask]
}

// lastAt returns the page holding last-level node b and b's slot in it.
func (t *RegularTree[K]) lastAt(b int32) ([]K, int32) {
	return t.last[b>>lastPageBits], b & lastPageMask
}

// lastW is lastAt for a write: a page another tree or the device
// replica may read is copied first.
func (t *RegularTree[K]) lastW(b int32) ([]K, int32) {
	p := b >> lastPageBits
	if w := t.innerW(); t.lastStamp[p] < w {
		t.last[p], t.lastStamp[p] = t.copyLastPage(t.last[p]), w
	}
	return t.last[p], b & lastPageMask
}

// upperW makes the upper pool safe to write: a pool another tree or the
// device replica may read is copied first, with reserve's headroom.
func (t *RegularTree[K]) upperW() {
	if w := t.innerW(); t.upperStamp < w {
		t.upper, t.upperStamp = clonePool(t.upper, t.nodeSlots), w
	}
}

// innerW returns the stamp from which t may write inner memory in place.
func (t *RegularTree[K]) innerW() uint64 { return max(t.owned, t.inner) }

// ShareInner marks the inner memory InnerArrays returns as read by a
// device replica: t copies each last-level page, and the upper pool,
// before its next write to it. The leaves' rights are untouched.
func (t *RegularTree[K]) ShareInner() { t.inner = cowClock.Add(1) }

// copyLastPage returns a private copy of last-level page pg, with
// capacity for a full page.
func (t *RegularTree[K]) copyLastPage(pg []K) []K {
	c := make([]K, len(pg), LastPageNodes*t.nodeSlots)
	copy(c, pg)
	return c
}

// lastPoolCap returns the capacity of a flat last-level pool of n nodes
// of per slots: whole pages, so that every page cut from it (pageLast)
// has room to a full page.
func lastPoolCap(n, per int) int {
	return (n + lastPageMask) &^ lastPageMask * per
}

// pageLast cuts the flat last-level pool into pages, each stamped
// t.owned; pool's capacity must be lastPoolCap of its nodes.
// Like the record pages, the pages share one backing array, one
// allocation for the pool; a page copied by a write is a fresh one.
func (t *RegularTree[K]) pageLast(pool []K) ([][]K, []uint64) {
	pl := LastPageNodes * t.nodeSlots
	np := (len(pool) + pl - 1) / pl
	pages, stamps := make([][]K, np), make([]uint64, np)
	for p := range pages {
		pages[p] = pool[p*pl : min((p+1)*pl, len(pool)) : (p+1)*pl]
		stamps[p] = t.owned
	}
	return pages, stamps
}

// addLastNode appends a node to the last-level pool: into the last page
// while it has room (copying it first if another tree may read it),
// else as a new page.
func (t *RegularTree[K]) addLastNode() {
	n := int32(len(t.lastMeta))
	if n&lastPageMask == 0 {
		t.last = append(t.last, make([]K, t.nodeSlots, LastPageNodes*t.nodeSlots))
		t.lastStamp = append(t.lastStamp, t.innerW())
		return
	}
	pg, _ := t.lastW(n - 1)
	t.last[n>>lastPageBits] = pg[:len(pg)+t.nodeSlots]
}

// regularBox allocates a tree together with its append floor, which
// only the tree's own pointer reaches, so copying a tree's fields never
// reads a floor another goroutine may be swapping.
type regularBox[K keys.Key] struct {
	t   RegularTree[K]
	app atomic.Uint64
}

// derive returns a copy of t's fields as a new tree with append floor
// app and birth born.
func (t *RegularTree[K]) derive(app, born uint64) *RegularTree[K] {
	bx := &regularBox[K]{t: *t}
	bx.app.Store(app)
	bx.t.app, bx.t.born = &bx.app, born
	return &bx.t
}

// initRights starts a tree that shares nothing: it holds every right on
// what it stamps with t.owned.
func (t *RegularTree[K]) initRights() {
	now := cowClock.Add(1)
	t.app.Store(now)
	t.born, t.owned, t.poolStamp, t.upperStamp = now, now, now, now
}

// excl returns the stamp from which t may rewrite a leaf.
func (t *RegularTree[K]) excl() uint64 { return max(t.born, t.app.Load()) }

// share hands t's append right to a new tree and returns that tree's
// append floor and birth. t keeps reading all it holds but may no
// longer append to or rewrite any of it. Concurrent shares of one tree
// are safe: exactly one result gets the right.
func (t *RegularTree[K]) share() (app, born uint64) {
	now := cowClock.Add(1)
	return t.app.Swap(now), now
}

// pageLeaves cuts recs into record pages. A page's capacity ends at
// the page's end, so growing the last page never writes a record of
// another.
func pageLeaves[K keys.Key](recs []leafRec[K]) [][]leafRec[K] {
	pages := make([][]leafRec[K], (len(recs)+leafPageMask)>>leafPageBits)
	for i := range pages {
		lo := i << leafPageBits
		pages[i] = recs[lo:min(lo+leafPageSize, len(recs)):min(lo+leafPageSize, cap(recs))]
	}
	return pages
}

// copyPage returns a private copy of record page pg.
func copyPage[K keys.Key](pg []leafRec[K]) []leafRec[K] {
	c := make([]leafRec[K], len(pg), leafPageSize)
	copy(c, pg)
	return c
}

// ensurePrivate guards every structural entry point. A delta fork
// shares its inner pools and must never restructure, so it panics. A
// tree shared since it last restructured copies its record pages and
// what a delta fork of it shares and it writes in place: the node
// metadata and the last-level page table. t.owned is then the stamp
// that lets t rewrite a leaf, and with the inner floor a last-level
// page or the upper pool.
func (t *RegularTree[K]) ensurePrivate() {
	if t.sharedPools {
		panic("cpubtree: structural mutation on a delta fork; Clone() first")
	}
	if x := t.excl(); t.owned != x {
		for i, pg := range t.pages {
			t.pages[i] = copyPage(pg)
		}
		t.copyInner()
		t.owned = x
	}
}

// copyInner gives t its own node metadata, free lists and last-level
// page table; the pages and the upper pool stay shared until written.
// The flat pools get the one capacity rule's headroom (reserve).
func (t *RegularTree[K]) copyInner() {
	t.upperMeta = clonePool(t.upperMeta, 1)
	t.last = slices.Clone(t.last)
	t.lastStamp = slices.Clone(t.lastStamp)
	t.lastMeta = clonePool(t.lastMeta, 1)
	t.freeLast = slices.Clone(t.freeLast)
	t.freeUpper = slices.Clone(t.freeUpper)
}

// writeLeaf makes big leaf b safe to rewrite on a tree that passed
// ensurePrivate: a delta region is merged into the base pairs, which
// rewrites the leaf's last-level node, and a leaf another tree may read
// is copied. Either way the leaf gets its own slots.
func (t *RegularTree[K]) writeLeaf(b int32) *leafRec[K] {
	r := t.leaf(b)
	switch {
	case r.ndelta > 0:
		t.compactLeaf(b, r)
	case r.stamp < t.owned:
		r.data, r.stamp = t.leafCopy(r), t.owned
	}
	return r
}

// leafCopy returns fresh slots holding what leaf r's tree can read: its
// base pairs and delta entries, with MAX keys in every other slot. The
// slots past the delta entries may hold another tree's appends, written
// while this copy runs, so they are never read.
func (t *RegularTree[K]) leafCopy(r *leafRec[K]) []K {
	data := make([]K, t.leafSlots)
	np := int(r.npairs)
	ds, de := t.deltaStart(np), t.deltaStart(np)+int(r.ndelta)
	copy(data, r.data[:2*np])
	copy(data[2*ds:2*de], r.data[2*ds:2*de])
	maxK := keys.Max[K]()
	for pos := np; pos < t.leafCap; pos++ {
		if pos < ds || pos >= de {
			data[2*pos] = maxK
		}
	}
	return data
}

// newLeafData returns zeroed slots for a new big leaf: the next leaf of
// the bulk-loaded pool's headroom while t holds the pool's append right,
// else a fresh allocation.
func (t *RegularTree[K]) newLeafData() []K {
	n := len(t.leafPool)
	if t.poolStamp >= t.app.Load() && cap(t.leafPool)-n >= t.leafSlots {
		t.leafPool = t.leafPool[:n+t.leafSlots]
		return t.leafPool[n : n+t.leafSlots : n+t.leafSlots]
	}
	return make([]K, t.leafSlots)
}

// addLeafRec appends a zeroed record for a new big leaf: into the last
// page while it has room, else into a new page cut from the bulk-loaded
// record pool's headroom while t holds the pool's append right.
func (t *RegularTree[K]) addLeafRec() {
	b := t.nleaves
	t.nleaves++
	if b&leafPageMask != 0 {
		pg := &t.pages[len(t.pages)-1]
		if len(*pg) == cap(*pg) {
			*pg = copyPage(*pg)
		}
		*pg = (*pg)[:len(*pg)+1]
		return
	}
	pg := make([]leafRec[K], 1, leafPageSize)
	if t.poolStamp >= t.app.Load() && b < cap(t.recPool) {
		pg = t.recPool[b : b+1 : min(b+leafPageSize, cap(t.recPool))]
	}
	t.pages = append(t.pages, pg)
}

// copyTree returns a private copy of t with the given rights: its own
// metadata, free lists, leaf records and last-level page table, sharing
// t's leaf data, last-level pages and upper pool.
func (t *RegularTree[K]) copyTree(app, born uint64) *RegularTree[K] {
	c := t.derive(app, born)
	c.owned = c.excl()
	c.sharedPools = false
	c.copyInner()
	c.recPool = make([]leafRec[K], t.nleaves, reserve(t.nleaves))
	for i, pg := range t.pages {
		copy(c.recPool[i<<leafPageBits:], pg)
	}
	c.pages = pageLeaves(c.recPool)
	return c
}

// clonePool copies a pool of per-slot nodes with reserve's headroom.
func clonePool[T any](s []T, per int) []T {
	c := make([]T, len(s), reserve(len(s)/per)*per)
	copy(c, s)
	return c
}

// halfFull reports whether leaf r's delta region is at least half full:
// the leaves Clone compacts.
func (t *RegularTree[K]) halfFull(r *leafRec[K]) bool {
	return r.ndelta > 0 && 2*int(r.ndelta) >= t.deltaCap(int(r.npairs))
}
