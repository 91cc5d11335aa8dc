package cpubtree

import (
	"hbtree/internal/keys"
)

// This file supports the GPU-assisted update path (the paper's first
// future-work direction, Section 7: "this could be further improved by
// employing GPU cycles in support of parallel update query execution").
// The GPU pre-resolves each update's target big leaf by running the
// regular search kernel over the I-segment replica; the CPU then applies
// each leaf's operations as a group, skipping the inner-node descent
// entirely. ApplyOpsToLeaf is that group application: it handles splits
// locally by tracking the separators that partition the original leaf's
// key range.

// ApplyOpsToLeaf applies a group of operations that all target big leaf
// b (as resolved against the pre-update tree). The group must be in the
// write-batch normal form: keys strictly ascending, so no op depends on
// an earlier one, and no insert of the reserved MAX key (a delete of MAX
// counts as not found). Splits triggered inside the group are handled
// locally: the group's keys can only fall into b or the leaves split
// off from b's range.
func (t *RegularTree[K]) ApplyOpsToLeaf(b int32, ops []Op[K]) BatchResult {
	t.ensurePrivate()
	var res BatchResult
	maxK := keys.Max[K]()

	// The leaves carved from b's original range, each with the
	// separator bounding it from above (fixed at split time; MAX for
	// the rightmost). Ascending by range.
	type carve struct {
		leaf int32
		sep  K // keys <= sep belong to this leaf
	}
	carves := []carve{{leaf: b, sep: maxK}}
	dirty := make(map[int32]struct{})

	target := func(k K) int {
		for i, c := range carves {
			if k <= c.sep {
				return i
			}
		}
		return len(carves) - 1
	}

	for _, op := range ops {
		if op.Key == maxK {
			res.NotFound++
			continue
		}
		ci := target(op.Key)
		lf := carves[ci].leaf
		if lf == nilRef {
			// The carve's leaf was emptied and unlinked earlier in this
			// group; the tree has rerouted its range to a neighbour
			// outside the group's carve set, so resolve by descent.
			lf = t.descendUpper(op.Key)
			carves[ci].leaf = lf
		}
		if op.Delete {
			found, emptied := t.leafDelete(lf, op.Key)
			if !found {
				res.NotFound++
				continue
			}
			t.numPairs--
			res.Applied++
			if emptied {
				rootLeaf := t.lastMeta[lf].parent == nilRef
				t.removeLeaf(lf)
				res.Structural++
				res.UpperChanged = true
				delete(dirty, lf)
				switch {
				case len(carves) > 1 && ci < len(carves)-1:
					// Fold into the next carve: removeChild reroutes the
					// dead range to the next sibling, which is exactly
					// the adjacent carve split off from the same leaf.
					carves = append(carves[:ci], carves[ci+1:]...)
				case len(carves) > 1:
					// Rightmost carve: the range reroutes to the
					// previous sibling (the last-child slot becomes the
					// MAX catch-all).
					carves[ci-1].sep = carves[ci].sep
					carves = carves[:ci]
				case rootLeaf:
					// removeLeaf keeps the root's only leaf (emptied in
					// place); later keys still belong to it.
					carves[0].leaf = lf
				default:
					// The group's only leaf was unlinked and freed; the
					// tree rerouted its range to a neighbour outside the
					// carve set. Invalidate so later ops re-descend.
					carves[0].leaf = nilRef
				}
			} else {
				dirty[lf] = struct{}{}
			}
			continue
		}

		if added, ok := t.leafInsert(lf, op.Key, op.Value); ok {
			if added {
				t.numPairs++
			}
			res.Applied++
			dirty[lf] = struct{}{}
			continue
		}
		// Full: split locally and retry in the correct half.
		nb := t.splitLeaf(lf)
		splitKey := t.leafMaxKey(lf)
		upper := carves[ci].sep
		carves[ci].sep = splitKey
		rest := append([]carve{}, carves[ci+1:]...)
		carves = append(append(carves[:ci+1], carve{leaf: nb, sep: upper}), rest...)
		res.Structural++
		res.UpperChanged = true
		if op.Key > splitKey {
			lf = nb
		}
		if _, ok := t.leafInsert(lf, op.Key, op.Value); !ok {
			panic("cpubtree: insert failed after local split")
		}
		t.numPairs++
		res.Applied++
		dirty[lf] = struct{}{}
	}

	for lf := range dirty {
		res.DirtyLast = append(res.DirtyLast, lf)
	}
	return res
}
