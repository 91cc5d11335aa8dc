package cpubtree

import (
	"sort"
	"testing"
	"testing/quick"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

func buildRegular64(t testing.TB, n int, cfg Config) (*RegularTree[uint64], []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
	tr, err := BuildRegular(pairs, cfg)
	if err != nil {
		t.Fatalf("BuildRegular: %v", err)
	}
	return tr, pairs
}

// checkInvariants verifies the regular tree's structural invariants by a
// full walk: sorted leaf chain matching the expected pair set, correct
// pair count, index lines consistent with separators, parent pointers
// and child counts consistent.
func checkInvariants(t *testing.T, tr *RegularTree[uint64], want []keys.Pair[uint64]) {
	t.Helper()
	// Leaf chain yields all pairs in order.
	var got []keys.Pair[uint64]
	for b := tr.headLeaf; b != nilRef; b = tr.leaf(b).next {
		np := int(tr.leaf(b).npairs)
		data := tr.leaf(b).data
		for i := 0; i < np; i++ {
			got = append(got, keys.Pair[uint64]{Key: data[2*i], Value: data[2*i+1]})
		}
		// Packed region sorted; padding all MAX.
		for i := 1; i < np; i++ {
			if data[2*(i-1)] >= data[2*i] {
				t.Fatalf("leaf %d not sorted at %d", b, i)
			}
		}
		for i := np; i < tr.leafCap; i++ {
			if data[2*i] != keys.Max[uint64]() {
				t.Fatalf("leaf %d padding slot %d = %d", b, i, data[2*i])
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("walk found %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("walk[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if tr.NumPairs() != len(want) {
		t.Fatalf("NumPairs = %d, want %d", tr.NumPairs(), len(want))
	}
	// Index lines mirror separators.
	checkNode := func(pool []uint64, idx int32) {
		il := tr.indexLine(pool, idx)
		ks := tr.nodeKeys(pool, idx)
		for s := 0; s < tr.kpl; s++ {
			if il[s] != ks[s*tr.kpl+tr.kpl-1] {
				t.Fatalf("index line slot %d inconsistent on node %d", s, idx)
			}
		}
		// Separators non-decreasing with MAX padding.
		for c := 1; c < tr.fanout; c++ {
			if ks[c-1] > ks[c] {
				t.Fatalf("separators not sorted on node %d at %d", idx, c)
			}
		}
	}
	// Walk all reachable nodes breadth-first from the root.
	if tr.height >= 2 {
		level := []int32{tr.root}
		for h := tr.height; h >= 2; h-- {
			var next []int32
			for _, u := range level {
				checkNode(tr.upper, u)
				n := int(tr.upperMeta[u].nchild)
				if n < 1 || n > tr.fanout {
					t.Fatalf("upper node %d nchild=%d", u, n)
				}
				rs := tr.nodeRefs(tr.upper, u)
				for j := 0; j < n; j++ {
					c := int32(rs[j])
					if h > 2 {
						if tr.upperMeta[c].parent != u {
							t.Fatalf("upper child %d parent != %d", c, u)
						}
					} else {
						if tr.lastMeta[c].parent != u {
							t.Fatalf("last child %d parent != %d", c, u)
						}
					}
					next = append(next, c)
				}
			}
			level = next
		}
		for _, b := range level {
			checkNode(tr.lastAt(b))
		}
	} else {
		checkNode(tr.lastAt(tr.root))
	}
}

func TestRegularLookupAllKeys(t *testing.T) {
	for _, n := range []int{1, 5, 255, 256, 257, 5000, 200000} {
		tr, pairs := buildRegular64(t, n, Config{})
		for _, p := range pairs {
			v, ok := tr.Lookup(p.Key)
			if !ok || v != p.Value {
				t.Fatalf("n=%d: Lookup(%d) = (%d,%v), want (%d,true)", n, p.Key, v, ok, p.Value)
			}
		}
		checkInvariants(t, tr, pairs)
	}
}

func TestRegular32Bit(t *testing.T) {
	pairs := workload.Dataset[uint32](workload.Uniform, 30000, 8)
	tr, err := BuildRegular(pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fanout() != 256 {
		t.Fatalf("32-bit fanout = %d, want 256", tr.Fanout())
	}
	if tr.LeafCapacity() != 2048 {
		t.Fatalf("32-bit leaf capacity = %d, want 2048", tr.LeafCapacity())
	}
	for i := 0; i < len(pairs); i += 3 {
		if v, ok := tr.Lookup(pairs[i].Key); !ok || v != pairs[i].Value {
			t.Fatalf("32-bit Lookup(%d) failed", pairs[i].Key)
		}
	}
}

func TestRegularGeometry(t *testing.T) {
	tr, _ := buildRegular64(t, 100000, Config{})
	if tr.Fanout() != 64 {
		t.Fatalf("fanout = %d, want 64", tr.Fanout())
	}
	if tr.LeafCapacity() != 256 {
		t.Fatalf("leaf capacity = %d, want 256", tr.LeafCapacity())
	}
	// S_I = 1088 bytes = 17 cache lines (Figure 2c).
	if got := tr.nodeSlots * keys.Size[uint64](); got != 1088 {
		t.Fatalf("inner node bytes = %d, want 1088", got)
	}
	st := tr.Stats()
	if st.LinesPerQuery != 3*tr.Height() {
		t.Fatalf("LinesPerQuery = %d, want %d", st.LinesPerQuery, 3*tr.Height())
	}
}

func TestRegularLookupMisses(t *testing.T) {
	tr, pairs := buildRegular64(t, 10000, Config{})
	present := make(map[uint64]bool, len(pairs))
	for _, p := range pairs {
		present[p.Key] = true
	}
	r := workload.NewRNG(3)
	for i := 0; i < 5000; i++ {
		q := r.Uint64()
		if q == keys.Max[uint64]() || present[q] {
			continue
		}
		if _, ok := tr.Lookup(q); ok {
			t.Fatalf("found nonexistent key %d", q)
		}
	}
}

func TestRegularBatchMatchesSingle(t *testing.T) {
	tr, pairs := buildRegular64(t, 50000, Config{Threads: 4})
	qs := workload.SearchInput(pairs, len(pairs), 1)
	vals := make([]uint64, len(qs))
	fnd := make([]bool, len(qs))
	tr.LookupBatch(qs, vals, fnd)
	for i, q := range qs {
		if !fnd[i] || vals[i] != workload.ValueFor(q) {
			t.Fatalf("batch lookup %d of key %d wrong", i, q)
		}
	}
}

func TestRegularRangeQuery(t *testing.T) {
	tr, pairs := buildRegular64(t, 20000, Config{})
	r := workload.NewRNG(5)
	for iter := 0; iter < 200; iter++ {
		start := r.Intn(len(pairs))
		count := 1 + r.Intn(64)
		out := tr.RangeQuery(pairs[start].Key, count, nil)
		wantN := count
		if start+count > len(pairs) {
			wantN = len(pairs) - start
		}
		if len(out) != wantN {
			t.Fatalf("range: got %d, want %d", len(out), wantN)
		}
		for j, p := range out {
			if p != pairs[start+j] {
				t.Fatalf("range[%d] = %+v, want %+v", j, p, pairs[start+j])
			}
		}
	}
}

func TestRegularInsertLookup(t *testing.T) {
	tr, pairs := buildRegular64(t, 5000, Config{LeafFill: 0.7})
	oracle := make(map[uint64]uint64)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	r := workload.NewRNG(10)
	for i := 0; i < 8000; i++ {
		k := r.Uint64()
		if k == keys.Max[uint64]() {
			continue
		}
		v := workload.ValueFor(k)
		if _, err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	want := make([]keys.Pair[uint64], 0, len(oracle))
	for k, v := range oracle {
		want = append(want, keys.Pair[uint64]{Key: k, Value: v})
	}
	sort.Sort(keys.ByKey[uint64](want))
	checkInvariants(t, tr, want)
	for k, v := range oracle {
		if got, ok := tr.Lookup(k); !ok || got != v {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
}

func TestRegularInsertOverwrite(t *testing.T) {
	tr, pairs := buildRegular64(t, 100, Config{})
	n := tr.NumPairs()
	if _, err := tr.Insert(pairs[0].Key, 777); err != nil {
		t.Fatal(err)
	}
	if tr.NumPairs() != n {
		t.Fatalf("overwrite changed NumPairs to %d", tr.NumPairs())
	}
	if v, _ := tr.Lookup(pairs[0].Key); v != 777 {
		t.Fatalf("overwrite not visible: %d", v)
	}
}

func TestRegularInsertSentinelRejected(t *testing.T) {
	tr, _ := buildRegular64(t, 10, Config{})
	if _, err := tr.Insert(keys.Max[uint64](), 1); err == nil {
		t.Fatal("sentinel insert accepted")
	}
}

func TestRegularInsertSplitsGrowHeight(t *testing.T) {
	// Sequential inserts into full leaves force splits up the tree.
	pairs := workload.Dataset[uint64](workload.Uniform, 64, 3)
	tr, err := BuildRegular(pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h0 := tr.Height()
	oracle := make(map[uint64]uint64)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	r := workload.NewRNG(44)
	for i := 0; i < 200000; i++ {
		k := r.Uint64()
		if k == keys.Max[uint64]() {
			continue
		}
		v := workload.ValueFor(k)
		tr.Insert(k, v)
		oracle[k] = v
	}
	if tr.Height() <= h0 {
		t.Fatalf("height did not grow: %d -> %d", h0, tr.Height())
	}
	want := make([]keys.Pair[uint64], 0, len(oracle))
	for k, v := range oracle {
		want = append(want, keys.Pair[uint64]{Key: k, Value: v})
	}
	sort.Sort(keys.ByKey[uint64](want))
	checkInvariants(t, tr, want)
}

func TestRegularDelete(t *testing.T) {
	tr, pairs := buildRegular64(t, 5000, Config{})
	oracle := make(map[uint64]uint64)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	r := workload.NewRNG(12)
	deleted := 0
	for i := 0; i < 3000; i++ {
		k := pairs[r.Intn(len(pairs))].Key
		found, _ := tr.Delete(k)
		if _, want := oracle[k]; want != found {
			t.Fatalf("Delete(%d) found=%v, want %v", k, found, want)
		}
		if found {
			delete(oracle, k)
			deleted++
		}
	}
	if deleted == 0 {
		t.Fatal("no deletions executed")
	}
	want := make([]keys.Pair[uint64], 0, len(oracle))
	for k, v := range oracle {
		want = append(want, keys.Pair[uint64]{Key: k, Value: v})
	}
	sort.Sort(keys.ByKey[uint64](want))
	checkInvariants(t, tr, want)
}

func TestRegularDeleteAllThenReinsert(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 3000, 77)
	tr, err := BuildRegular(pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if found, _ := tr.Delete(p.Key); !found {
			t.Fatalf("Delete(%d) missed", p.Key)
		}
	}
	if tr.NumPairs() != 0 {
		t.Fatalf("NumPairs = %d after deleting all", tr.NumPairs())
	}
	for _, p := range pairs {
		if _, ok := tr.Lookup(p.Key); ok {
			t.Fatalf("deleted key %d still found", p.Key)
		}
	}
	// The tree must remain usable.
	for _, p := range pairs[:500] {
		if _, err := tr.Insert(p.Key, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr, pairs[:500])
}

func TestRegularApplyBatchParallel(t *testing.T) {
	tr, pairs := buildRegular64(t, 30000, Config{LeafFill: 0.8})
	ops := workload.UpdateBatch(pairs, 20000, 0.3, 55)
	oracle := make(map[uint64]uint64)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	cops := make([]Op[uint64], len(ops))
	for i, op := range ops {
		cops[i] = Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value, Delete: op.Delete}
		if op.Delete {
			delete(oracle, op.Pair.Key)
		} else {
			oracle[op.Pair.Key] = op.Pair.Value
		}
	}
	res := tr.ApplyBatchParallel(cops, 4)
	if res.Applied == 0 {
		t.Fatal("no ops applied")
	}
	want := make([]keys.Pair[uint64], 0, len(oracle))
	for k, v := range oracle {
		want = append(want, keys.Pair[uint64]{Key: k, Value: v})
	}
	sort.Sort(keys.ByKey[uint64](want))
	checkInvariants(t, tr, want)
	if len(res.DirtyLast) == 0 {
		t.Fatal("no dirty nodes reported")
	}
}

func TestRegularApplyBatchSequentialMatchesParallel(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 10000, 4)
	ops := workload.UpdateBatch(pairs, 5000, 0.4, 66)
	cops := make([]Op[uint64], len(ops))
	for i, op := range ops {
		cops[i] = Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value, Delete: op.Delete}
	}
	t1, _ := BuildRegular(pairs, Config{LeafFill: 0.9})
	t2, _ := BuildRegular(pairs, Config{LeafFill: 0.9})
	t1.ApplyBatchSequential(cops)
	t2.ApplyBatchParallel(cops, 8)
	if t1.NumPairs() != t2.NumPairs() {
		t.Fatalf("NumPairs diverge: %d vs %d", t1.NumPairs(), t2.NumPairs())
	}
	// Both trees must contain exactly the same data.
	out1 := t1.RangeQuery(0, t1.NumPairs()+10, nil)
	out2 := t2.RangeQuery(0, t2.NumPairs()+10, nil)
	if len(out1) != len(out2) {
		t.Fatalf("range sizes diverge: %d vs %d", len(out1), len(out2))
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("content diverges at %d: %+v vs %+v", i, out1[i], out2[i])
		}
	}
}

func TestRegularMixedBatch(t *testing.T) {
	tr, pairs := buildRegular64(t, 20000, Config{LeafFill: 0.8})
	r := workload.NewRNG(31)
	ops := make([]MixedOp[uint64], 10000)
	for i := range ops {
		switch r.Intn(3) {
		case 0:
			p := pairs[r.Intn(len(pairs))]
			ops[i] = MixedOp[uint64]{Kind: MixedSearch, Key: p.Key}
		case 1:
			k := r.Uint64()
			if k == keys.Max[uint64]() {
				k--
			}
			ops[i] = MixedOp[uint64]{Kind: MixedInsert, Key: k, Value: workload.ValueFor(k)}
		default:
			ops[i] = MixedOp[uint64]{Kind: MixedDelete, Key: pairs[r.Intn(len(pairs))].Key}
		}
	}
	res := tr.MixedBatch(ops, 4)
	// Searches for keys that were present at batch start and never
	// deleted must succeed with the correct value.
	deletedKeys := make(map[uint64]bool)
	for _, op := range ops {
		if op.Kind == MixedDelete {
			deletedKeys[op.Key] = true
		}
	}
	for i, op := range ops {
		if op.Kind == MixedSearch && !deletedKeys[op.Key] {
			if !res.Found[i] || res.Values[i] != workload.ValueFor(op.Key) {
				t.Fatalf("mixed search %d for key %d failed", i, op.Key)
			}
		}
	}
}

// TestRegularQuickUpdates property-tests random update sequences against
// a map oracle.
func TestRegularQuickUpdates(t *testing.T) {
	f := func(seed uint64) bool {
		pairs := workload.Dataset[uint64](workload.Uniform, 500, seed)
		tr, err := BuildRegular(pairs, Config{LeafFill: 0.6})
		if err != nil {
			return false
		}
		oracle := make(map[uint64]uint64)
		for _, p := range pairs {
			oracle[p.Key] = p.Value
		}
		r := workload.NewRNG(seed ^ 0xabcd)
		for i := 0; i < 2000; i++ {
			if r.Intn(3) == 0 {
				k := pairs[r.Intn(len(pairs))].Key
				tr.Delete(k)
				delete(oracle, k)
			} else {
				k := r.Uint64()
				if k == keys.Max[uint64]() {
					continue
				}
				tr.Insert(k, k+1)
				oracle[k] = k + 1
			}
		}
		for k, v := range oracle {
			if got, ok := tr.Lookup(k); !ok || got != v {
				return false
			}
		}
		return tr.NumPairs() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRegularLeafFillBounds(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 10000, 2)
	for _, fill := range []float64{0.3, 0.5, 1.0} {
		tr, err := BuildRegular(pairs, Config{LeafFill: fill})
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr, pairs)
	}
}
