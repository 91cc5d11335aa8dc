package cpubtree

import (
	"slices"

	"hbtree/internal/keys"
)

// Gapped delta leaves: the in-place batch-apply path that kills the
// clone-on-write amplification of the snapshot serving layer. A bulk
// load with LeafFill < 1 leaves slack pair slots at the tail of every
// big leaf; this file turns that slack into a per-leaf append-only
// delta region so a small batch can be applied without copying the
// tree.
//
// Layout. A big leaf's pairs stay packed and sorted in [0, npairs); the
// delta region starts at the first cache-line boundary past the base
// pairs (deltaStart) and holds up to deltaCap append-only (key, value)
// entries, newest last. A delete is an appended entry whose bit in the
// record's tomb mask is set — a tombstone shadowing the key below it.
// Line alignment matters: readers pinned on an older epoch probe base
// lines with SIMD line loads, and a delta entry sharing a line with
// base pairs would tear those loads. Line 0 is always base-reserved so
// an empty leaf's probes never touch delta state. The mask bounds
// deltaCap at 64 entries.
//
// Epoch discipline. ForkDelta produces a view that shares every pool
// with its parent and copies only the leaf-record page table; writing a
// leaf's record copies that record's page (cow.go), so an in-place
// batch copies the pages of the leaves it writes, not the tree. The
// fork appends delta entries into leaf slots at indices >= every
// ancestor's ndelta: addresses no pinned reader of an older epoch ever
// loads, because each epoch's reads are bounded by its own records. A
// fork appends only to leaves whose append right it holds (cow.go) and
// copies any other leaf first, so two forks of one parent never append
// into the same slots. A slot is therefore never reused while an epoch
// that could see it is pinned, and publication through the epoch
// registry's atomic swap orders the appends before any new-epoch read.
// Everything structural — splits, merges, base-region shifts — is
// forbidden on a fork (sharedPools guards panic) and falls back to the
// clone-and-swap path: Clone() compacts the delta regions at least half
// full, and a structural update compacts any other leaf it rewrites.

// deltaStart returns the first pair slot of the delta region for a leaf
// holding np base pairs: the next leaf-line boundary, with line 0
// always reserved for the base region.
func (t *RegularTree[K]) deltaStart(np int) int {
	lines := (np + t.ppl - 1) / t.ppl
	if lines < 1 {
		lines = 1
	}
	return lines * t.ppl
}

// deltaCap returns how many delta entries fit behind np base pairs
// (bounded by the 64-bit tombstone mask).
func (t *RegularTree[K]) deltaCap(np int) int {
	c := t.leafCap - t.deltaStart(np)
	if c > 64 {
		c = 64
	}
	if c < 0 {
		c = 0
	}
	return c
}

// DeltaLeaves reports how many big leaves carry uncompacted delta
// entries. Clone keeps the delta regions less than half full, so a
// clone may carry some.
func (t *RegularTree[K]) DeltaLeaves() int {
	n := 0
	for _, pg := range t.pages {
		for i := range pg {
			if pg[i].ndelta > 0 {
				n++
			}
		}
	}
	return n
}

// Shared reports whether this tree is a delta fork sharing node pools
// with its ancestors (structural mutation is forbidden on it).
func (t *RegularTree[K]) Shared() bool { return t.sharedPools }

// deltaLookup resolves q against leaf m's delta region, newest entry
// first (the latest append for a key wins). ok reports whether the key
// has a delta entry at all; tombstoned reports a delete shadow.
func (t *RegularTree[K]) deltaLookup(m *leafRec[K], q K) (v K, tombstoned, ok bool) {
	ds := t.deltaStart(int(m.npairs))
	data := m.data
	for j := int(m.ndelta) - 1; j >= 0; j-- {
		if data[2*(ds+j)] == q {
			return data[2*(ds+j)+1], m.tomb&(1<<uint(j)) != 0, true
		}
	}
	return 0, false, false
}

// Per-op plan actions.
const (
	actInsert    uint8 = iota // append; net live +1
	actOverwrite              // append shadowing an existing value
	actDelete                 // append tombstone; net live -1
	actNotFound               // delete of an absent key; no append
)

// DeltaPlan is the reusable classification scratch of PlanDelta. A plan
// is valid for exactly the (tree, ops) pair it was computed from and is
// consumed by ApplyPlannedDelta on a fork of that tree.
type DeltaPlan[K keys.Key] struct {
	leaves []int32 // target leaf per op
	acts   []uint8 // action per op
	dirty  []int32 // distinct leaves the batch appends to
}

// PlanDelta classifies ops against t per target leaf and reports
// whether the whole batch fits the existing gaps: every touched leaf
// must absorb its appends within deltaCap and keep at least one live
// pair. Any violation fails the whole batch (the caller falls back to
// clone-and-swap); a feasible plan never triggers structural change.
// The plan only reads t; it does not mutate it.
//
// ops must be in the write-batch normal form: keys strictly ascending
// and no insert of the reserved MAX key. Each leaf's ops then form one
// contiguous run, and no op depends on an earlier one in the batch. A
// batch out of that form fails the plan.
func (t *RegularTree[K]) PlanDelta(ops []Op[K], p *DeltaPlan[K]) bool {
	if cap(p.leaves) < len(ops) {
		p.leaves = make([]int32, len(ops))
		p.acts = make([]uint8, len(ops))
	}
	p.leaves = p.leaves[:len(ops)]
	p.acts = p.acts[:len(ops)]
	p.dirty = p.dirty[:0]

	maxK := keys.Max[K]()
	run := nilRef // leaf of the current run
	var m *leafRec[K]
	pend, live := 0, 0 // the run's appends and net live-pair change
	for i, op := range ops {
		if i > 0 && op.Key <= ops[i-1].Key || op.Key == maxK && !op.Delete {
			return false
		}
		b := t.descendUpper(op.Key)
		p.leaves[i] = b
		if b != run {
			run, m, pend, live = b, t.leaf(b), 0, 0
		}

		// Presence: the tree's own delta region, then the packed base.
		var present bool
		if _, tomb, ok := t.deltaLookup(m, op.Key); ok {
			present = !tomb
		} else {
			present = t.contains(m, op.Key)
		}
		if op.Delete && !present {
			p.acts[i] = actNotFound
			continue
		}

		if pend == 0 {
			p.dirty = append(p.dirty, b)
		}
		if int(m.ndelta)+pend+1 > t.deltaCap(int(m.npairs)) {
			return false // gap exhausted: whole batch takes the clone path
		}
		pend++
		switch {
		case op.Delete:
			p.acts[i] = actDelete
			live--
			if int(m.npairs)+int(m.nlive)+live <= 0 {
				return false // leaf would empty: structural, clone path
			}
		case present:
			p.acts[i] = actOverwrite
		default:
			p.acts[i] = actInsert
			live++
		}
	}
	return true
}

// ForkDelta returns a view of t that shares every pool (inner nodes,
// leaf records and data, free lists) and copies only the leaf-record
// page table; it takes over t's append right (cow.go). ApplyPlannedDelta
// then copies the record pages of the leaves it writes, so it can
// publish new per-leaf slot counts without disturbing readers of t. The
// fork refuses structural mutation; Clone() it to obtain a private
// tree.
func (t *RegularTree[K]) ForkDelta() *RegularTree[K] {
	c := t.derive(t.share())
	c.pages = slices.Clone(t.pages)
	c.sharedPools = true
	return c
}

// ApplyPlannedDelta applies a batch classified by PlanDelta to t — a
// fresh fork of the tree the plan was computed from. Every op appends
// into its leaf's delta region at slots past the parent's ndelta, so
// readers of any ancestor epoch keep seeing their exact pre-batch
// images. The record page of each leaf written is copied once (the
// batch's leaves ascend), and a leaf whose append right another tree
// holds is copied first. The inner pools are untouched: no separator,
// node or device state changes.
func (t *RegularTree[K]) ApplyPlannedDelta(ops []Op[K], p *DeltaPlan[K]) BatchResult {
	var res BatchResult
	app, x := t.app.Load(), t.excl()
	copied := -1 // the last record page copied
	for i, op := range ops {
		if p.acts[i] == actNotFound {
			res.NotFound++
			continue
		}
		b := p.leaves[i]
		if pi := int(b >> leafPageBits); pi != copied {
			t.pages[pi] = copyPage(t.pages[pi])
			copied = pi
		}
		m := t.leaf(b)
		if m.stamp < app {
			m.data, m.stamp = t.leafCopy(m), x
		}
		j := int(m.ndelta)
		pos := t.deltaStart(int(m.npairs)) + j
		data := m.data
		data[2*pos] = op.Key
		data[2*pos+1] = op.Value
		switch p.acts[i] {
		case actDelete:
			m.tomb |= 1 << uint(j)
			m.nlive--
			t.numPairs--
		case actInsert:
			m.nlive++
			t.numPairs++
		}
		m.ndelta = int32(j + 1)
		res.Applied++
	}
	res.DirtyLast = append(res.DirtyLast, p.dirty...)
	return res
}

// leafScan is one leaf's delta region deduplicated (newest entry per
// key wins) and sorted ascending — the merge input for ordered scans
// and compaction. Tombstoned keys are kept with tomb set so the merge
// can suppress the shadowed base pair.
type leafScan[K keys.Key] struct {
	keys [64]K
	vals [64]K
	tomb [64]bool
	n    int
}

// buildLeafScan fills s from leaf m's delta region.
func (t *RegularTree[K]) buildLeafScan(m *leafRec[K], s *leafScan[K]) {
	s.n = 0
	ds := t.deltaStart(int(m.npairs))
	data := m.data
	for j := int(m.ndelta) - 1; j >= 0; j-- {
		k := data[2*(ds+j)]
		dup := false
		for x := 0; x < s.n; x++ {
			if s.keys[x] == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		s.keys[s.n] = k
		s.vals[s.n] = data[2*(ds+j)+1]
		s.tomb[s.n] = m.tomb&(1<<uint(j)) != 0
		s.n++
	}
	for i := 1; i < s.n; i++ {
		k, v, tb := s.keys[i], s.vals[i], s.tomb[i]
		j := i - 1
		for j >= 0 && s.keys[j] > k {
			s.keys[j+1], s.vals[j+1], s.tomb[j+1] = s.keys[j], s.vals[j], s.tomb[j]
			j--
		}
		s.keys[j+1], s.vals[j+1], s.tomb[j+1] = k, v, tb
	}
}

// compactLeaf merges leaf b's delta region into its base pairs on a
// private tree (ensurePrivate, copyTree). The merge lands in fresh slots: the
// old ones may be read by another tree, and a merge in place would need
// a scratch copy anyway. A compacted leaf always fits — base + delta <=
// leafCap by the deltaCap bound — so compaction never splits; it does
// rewrite the leaf's last-level node, which the caller must report.
func (t *RegularTree[K]) compactLeaf(b int32, m *leafRec[K]) {
	var s leafScan[K]
	t.buildLeafScan(m, &s)
	np := int(m.npairs)
	old := m.data
	data := make([]K, t.leafSlots)
	out, bi, di := 0, 0, 0
	emit := func(k, v K) {
		data[2*out], data[2*out+1] = k, v
		out++
	}
	for bi < np || di < s.n {
		haveB, haveD := bi < np, di < s.n
		if haveD && (!haveB || s.keys[di] <= old[2*bi]) {
			if haveB && s.keys[di] == old[2*bi] {
				bi++
			}
			if !s.tomb[di] {
				emit(s.keys[di], s.vals[di])
			}
			di++
			continue
		}
		emit(old[2*bi], old[2*bi+1])
		bi++
	}
	maxK := keys.Max[K]()
	for pos := out; pos < t.leafCap; pos++ {
		data[2*pos] = maxK
	}
	m.data, m.stamp = data, t.owned
	m.npairs = int32(out)
	m.ndelta, m.tomb, m.nlive = 0, 0, 0
	t.refreshLastKeys(b)
}
