package cpubtree

import (
	"sort"
	"testing"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// groupByLeaf resolves each op's target leaf on the current tree and
// returns ops bucketed per leaf, in key order.
func groupByLeaf(t *RegularTree[uint64], ops []Op[uint64]) map[int32][]Op[uint64] {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	groups := map[int32][]Op[uint64]{}
	for _, op := range ops {
		b, _ := t.SearchToLeaf(op.Key)
		groups[b] = append(groups[b], op)
	}
	return groups
}

func TestApplyOpsToLeafBasic(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 5000, 1)
	tr, err := BuildRegular(pairs, Config{LeafFill: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64]uint64)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	ops := make([]Op[uint64], 0, 3000)
	wl := workload.UpdateBatch(pairs, 3000, 0.4, 3)
	for _, op := range wl {
		ops = append(ops, Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value, Delete: op.Delete})
		if op.Delete {
			delete(oracle, op.Pair.Key)
		} else {
			oracle[op.Pair.Key] = op.Pair.Value
		}
	}
	for leaf, group := range groupByLeaf(tr, ops) {
		tr.ApplyOpsToLeaf(leaf, group)
	}
	if tr.NumPairs() != len(oracle) {
		t.Fatalf("NumPairs %d != %d", tr.NumPairs(), len(oracle))
	}
	for k, v := range oracle {
		if got, ok := tr.Lookup(k); !ok || got != v {
			t.Fatalf("Lookup(%d) = (%d,%v), want %d", k, got, ok, v)
		}
	}
}

func TestApplyOpsToLeafRepeatedSplits(t *testing.T) {
	// One group inserting many keys into a single full leaf's range
	// forces cascading local splits.
	base := make([]keys.Pair[uint64], 256)
	for i := range base {
		base[i] = keys.Pair[uint64]{Key: uint64(i+1) * 1000, Value: uint64(i)}
	}
	tr, err := BuildRegular(base, Config{LeafFill: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := tr.SearchToLeaf(base[0].Key)
	var group []Op[uint64]
	for i := 0; i < 1000; i++ {
		group = append(group, Op[uint64]{Key: uint64(i+1)*1000 + 1, Value: uint64(i)})
	}
	sort.Slice(group, func(i, j int) bool { return group[i].Key < group[j].Key })
	res := tr.ApplyOpsToLeaf(leaf, group)
	if res.Structural == 0 {
		t.Fatal("no splits happened")
	}
	if res.Applied != len(group) {
		t.Fatalf("applied %d of %d", res.Applied, len(group))
	}
	for _, op := range group {
		if v, ok := tr.Lookup(op.Key); !ok || v != op.Value {
			t.Fatalf("key %d missing after splits", op.Key)
		}
	}
	for _, p := range base {
		if v, ok := tr.Lookup(p.Key); !ok || v != p.Value {
			t.Fatalf("original key %d lost", p.Key)
		}
	}
}

func TestApplyOpsToLeafEmptiesLeaf(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 2000, 7)
	tr, err := BuildRegular(pairs, Config{LeafFill: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Delete every key of the first leaf in one group.
	leaf, _ := tr.SearchToLeaf(pairs[0].Key)
	var group []Op[uint64]
	for _, p := range pairs {
		if b, _ := tr.SearchToLeaf(p.Key); b == leaf {
			group = append(group, Op[uint64]{Key: p.Key, Delete: true})
		}
	}
	res := tr.ApplyOpsToLeaf(leaf, group)
	if res.Applied != len(group) {
		t.Fatalf("applied %d of %d", res.Applied, len(group))
	}
	for _, op := range group {
		if _, ok := tr.Lookup(op.Key); ok {
			t.Fatalf("key %d survived group delete", op.Key)
		}
	}
	// Remaining keys intact.
	for _, p := range pairs {
		if b, _ := tr.SearchToLeaf(p.Key); b == leaf {
			continue
		}
	}
	total := tr.RangeQuery(0, len(pairs), nil)
	if len(total)+len(group) != len(pairs) {
		t.Fatalf("tree holds %d pairs, want %d", len(total), len(pairs)-len(group))
	}
}

func TestApplyOpsToLeafOverwriteAndSentinel(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1000, 9)
	tr, err := BuildRegular(pairs, Config{LeafFill: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := tr.SearchToLeaf(pairs[0].Key)
	group := []Op[uint64]{
		{Key: pairs[0].Key, Value: 777},         // overwrite
		{Key: keys.Max[uint64](), Delete: true}, // sentinel: not found
	}
	sort.Slice(group, func(i, j int) bool { return group[i].Key < group[j].Key })
	res := tr.ApplyOpsToLeaf(leaf, group)
	if res.Applied != 1 || res.NotFound != 1 {
		t.Fatalf("applied %d, not found %d", res.Applied, res.NotFound)
	}
	if v, _ := tr.Lookup(pairs[0].Key); v != 777 {
		t.Fatal("overwrite not applied")
	}
	if tr.NumPairs() != len(pairs) {
		t.Fatalf("overwrite changed count to %d", tr.NumPairs())
	}
	// Empty group is a no-op.
	res = tr.ApplyOpsToLeaf(leaf, nil)
	if res.Applied != 0 || res.Structural != 0 {
		t.Fatalf("empty group did something: %+v", res)
	}
}

// TestApplyOpsToLeafDeleteAllThenInsert regression-tests the case where
// a group empties its (only) leaf partway through and later inserts keys
// into the same routed range: the inserts must land in a reachable leaf,
// not the freed one. Only the rightmost leaf can receive in-contract
// inserts above all its deleted keys (its routing upper bound is MAX),
// so the test targets it.
func TestApplyOpsToLeafDeleteAllThenInsert(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 4000, 21)
	tr, err := BuildRegular(pairs, Config{LeafFill: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	maxKey := pairs[len(pairs)-1].Key
	leaf, _ := tr.SearchToLeaf(maxKey) // rightmost leaf
	var group []Op[uint64]
	var rangeKeys []uint64
	for _, p := range pairs {
		if b, _ := tr.SearchToLeaf(p.Key); b == leaf {
			group = append(group, Op[uint64]{Key: p.Key, Delete: true})
			rangeKeys = append(rangeKeys, p.Key)
		}
	}
	// Inserts strictly above every deleted key: they still route to the
	// rightmost leaf, and in key order they execute after the leaf has
	// been emptied and unlinked.
	var inserted []uint64
	for i := 0; i < 64; i++ {
		k := maxKey + 1 + uint64(i)
		inserted = append(inserted, k)
		group = append(group, Op[uint64]{Key: k, Value: k * 2})
	}
	sort.Slice(group, func(i, j int) bool { return group[i].Key < group[j].Key })
	res := tr.ApplyOpsToLeaf(leaf, group)
	if res.Applied != len(group) {
		t.Fatalf("applied %d of %d (notfound %d)", res.Applied, len(group), res.NotFound)
	}
	for _, k := range rangeKeys {
		if _, ok := tr.Lookup(k); ok {
			t.Fatalf("deleted key %d still present", k)
		}
	}
	for _, k := range inserted {
		if v, ok := tr.Lookup(k); !ok || v != k*2 {
			t.Fatalf("re-inserted key %d missing or wrong (%d,%v)", k, v, ok)
		}
	}
	// The tree remains structurally sound for unrelated operations.
	if _, err := tr.Insert(123456789, 1); err != nil {
		t.Fatal(err)
	}
	out := tr.RangeQuery(0, tr.NumPairs()+1, nil)
	if len(out) != tr.NumPairs() {
		t.Fatalf("walk found %d of %d", len(out), tr.NumPairs())
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			t.Fatal("order violated")
		}
	}
}
