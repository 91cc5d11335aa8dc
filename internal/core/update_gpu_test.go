package core

import (
	"sort"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

func makeUpdateOps(pairs []keys.Pair[uint64], n int, deleteFrac float64, seed uint64) []cpubtree.Op[uint64] {
	wl := workload.UpdateBatch(pairs, n, deleteFrac, seed)
	ops := make([]cpubtree.Op[uint64], len(wl))
	for i, op := range wl {
		ops[i] = cpubtree.Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value, Delete: op.Delete}
	}
	return ops
}

// TestUpdateGPUAssistedMatchesOracle verifies the GPU-assisted update
// path against a map oracle and against the conventional parallel path.
func TestUpdateGPUAssistedMatchesOracle(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 60000, 21)
	ops := makeUpdateOps(pairs, 12000, 0.3, 31)

	gpuT, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer gpuT.Close()
	refT, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer refT.Close()

	gst, err := gpuT.UpdateGPUAssisted(ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refT.Update(ops, AsyncParallel); err != nil {
		t.Fatal(err)
	}
	if gst.Applied == 0 || gst.HostTime <= 0 {
		t.Fatalf("bad stats: %+v", gst)
	}
	if err := gpuT.VerifyReplica(); err != nil {
		t.Fatalf("replica diverged: %v", err)
	}

	// Both trees must hold identical content.
	if gpuT.NumPairs() != refT.NumPairs() {
		t.Fatalf("pair counts diverge: %d vs %d", gpuT.NumPairs(), refT.NumPairs())
	}
	a := gpuT.RangeQuery(0, gpuT.NumPairs()+1, nil)
	b := refT.RangeQuery(0, refT.NumPairs()+1, nil)
	if len(a) != len(b) {
		t.Fatalf("content sizes diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("content diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestUpdateGPUAssistedHeavySplits drives enough inserts through single
// leaves to force repeated local splits inside groups.
func TestUpdateGPUAssistedHeavySplits(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 2048, 5)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 1.0}) // full leaves: every insert splits
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ops := makeUpdateOps(pairs, 8192, 0.0, 77)
	st, err := tr.UpdateGPUAssisted(ops)
	if err != nil {
		t.Fatal(err)
	}
	if st.Structural == 0 {
		t.Fatal("no splits triggered")
	}
	oracle := make(map[uint64]uint64)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	for _, op := range ops {
		oracle[op.Key] = op.Value
	}
	for k, v := range oracle {
		if got, ok := tr.Lookup(k); !ok || got != v {
			t.Fatalf("Lookup(%d) = (%d,%v), want %d", k, got, ok, v)
		}
	}
	if err := tr.VerifyReplica(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateGPUAssistedDeleteAll empties leaves through grouped deletes.
func TestUpdateGPUAssistedDeleteAll(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 4096, 9)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ops := make([]cpubtree.Op[uint64], len(pairs))
	for i, p := range pairs {
		ops[i] = cpubtree.Op[uint64]{Key: p.Key, Delete: true}
	}
	st, err := tr.UpdateGPUAssisted(ops)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != len(pairs) || st.NotFound != 0 {
		t.Fatalf("stats %+v", st)
	}
	if tr.NumPairs() != 0 {
		t.Fatalf("%d pairs remain", tr.NumPairs())
	}
	for _, p := range pairs[:256] {
		if _, ok := tr.Lookup(p.Key); ok {
			t.Fatalf("deleted key %d still found", p.Key)
		}
	}
	if err := tr.VerifyReplica(); err != nil {
		t.Fatal(err)
	}
	// The tree must remain usable after total deletion.
	if _, err := tr.Update([]cpubtree.Op[uint64]{{Key: 42, Value: 43}}, AsyncSingle); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Lookup(42); !ok || v != 43 {
		t.Fatal("post-delete insert failed")
	}
}

// TestUpdateGPUAssistedFasterHostPhase: skipping the descent must make
// the modelled CPU phase cheaper than the conventional parallel path.
func TestUpdateGPUAssistedFasterHostPhase(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 300000, 13)
	ops := makeUpdateOps(pairs, 65536, 0.2, 17)

	a, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	gst, err := a.UpdateGPUAssisted(ops)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := b.Update(ops, AsyncParallel)
	if err != nil {
		t.Fatal(err)
	}
	if gst.HostTime >= cst.HostTime {
		t.Fatalf("GPU-assisted host phase %v not faster than conventional %v", gst.HostTime, cst.HostTime)
	}
}

// TestUpdateGPUAssistedQuick property-tests random batches against the
// sequential reference.
func TestUpdateGPUAssistedQuick(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		pairs := workload.Dataset[uint64](workload.Uniform, 3000, seed)
		ops := makeUpdateOps(pairs, 2000, 0.4, seed+100)
		a, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		bt, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.UpdateGPUAssisted(ops); err != nil {
			t.Fatal(err)
		}
		sorted := append([]cpubtree.Op[uint64]{}, ops...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		if _, err := bt.Update(sorted, AsyncSingle); err != nil {
			t.Fatal(err)
		}
		x := a.RangeQuery(0, a.NumPairs()+1, nil)
		y := bt.RangeQuery(0, bt.NumPairs()+1, nil)
		if len(x) != len(y) {
			t.Fatalf("seed %d: sizes diverge %d vs %d", seed, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("seed %d: diverges at %d", seed, i)
			}
		}
		a.Close()
		bt.Close()
	}
}
