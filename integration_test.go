package hbtree_test

import (
	"bytes"
	"sort"
	"testing"

	"hbtree"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/fast"
	"hbtree/internal/workload"
)

// Integration tests: cross-module scenarios exercising the whole stack —
// dataset generation, tree construction, hybrid search on the GPU
// simulator, batch updates with replica maintenance, persistence, and
// the baselines — all audited against a map oracle.

// TestLifecycleRegular drives a full index lifecycle: build, serve
// queries, run every update method, persist, reload, serve again.
func TestLifecycleRegular(t *testing.T) {
	const n = 50000
	pairs := hbtree.GeneratePairs[uint64](n, 42)
	oracle := make(map[uint64]uint64, n)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	methods := []hbtree.UpdateMethod{
		hbtree.Synchronized, hbtree.AsyncParallel, hbtree.AsyncSingle, hbtree.SynchronizedMT,
	}
	for round, method := range methods {
		// Serve a query wave.
		qs := hbtree.ShuffledQueries(pairs, 1<<15, uint64(round))
		vals, fnd, _, err := tree.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			wv, wok := oracle[q]
			if fnd[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("round %d: query %d diverges from oracle", round, i)
			}
		}
		// Apply an update batch.
		wl := workload.UpdateBatch(pairs, 4000, 0.3, uint64(100+round))
		ops := make([]hbtree.Op[uint64], len(wl))
		for i, op := range wl {
			ops[i] = hbtree.Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value, Delete: op.Delete}
			if op.Delete {
				delete(oracle, op.Pair.Key)
			} else {
				oracle[op.Pair.Key] = op.Pair.Value
			}
		}
		if _, err := tree.Update(ops, method); err != nil {
			t.Fatalf("round %d (%v): %v", round, method, err)
		}
		if err := tree.VerifyReplica(); err != nil {
			t.Fatalf("round %d (%v): %v", round, method, err)
		}
	}

	// GPU-assisted round.
	wl := workload.UpdateBatch(pairs, 4000, 0.3, 999)
	ops := make([]hbtree.Op[uint64], len(wl))
	for i, op := range wl {
		ops[i] = hbtree.Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value, Delete: op.Delete}
		if op.Delete {
			delete(oracle, op.Pair.Key)
		} else {
			oracle[op.Pair.Key] = op.Pair.Value
		}
	}
	if _, err := tree.UpdateGPUAssisted(ops); err != nil {
		t.Fatal(err)
	}

	// Persist, reload, audit everything.
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := hbtree.Load[uint64](&buf, hbtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.NumPairs() != len(oracle) {
		t.Fatalf("loaded pairs %d != oracle %d", loaded.NumPairs(), len(oracle))
	}
	audit := make([]uint64, 0, len(oracle))
	for k := range oracle {
		audit = append(audit, k)
	}
	sort.Slice(audit, func(i, j int) bool { return audit[i] < audit[j] })
	vals, fnd, _, err := loaded.LookupBatch(audit)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range audit {
		if !fnd[i] || vals[i] != oracle[k] {
			t.Fatalf("post-reload audit failed for key %d", k)
		}
	}
}

// TestAllIndexesAgree cross-checks every index structure in the
// repository on one dataset: CPU implicit/regular, FAST and the HB+
// variants must all return identical results for identical queries.
func TestAllIndexesAgree(t *testing.T) {
	const n = 30000
	pairs := hbtree.GeneratePairs[uint64](n, 7)
	qs := make([]uint64, 0, 8000)
	r := workload.NewRNG(5)
	for i := 0; i < 4000; i++ {
		qs = append(qs, pairs[r.Intn(n)].Key) // hits
		miss := r.Uint64()
		if miss == ^uint64(0) {
			miss--
		}
		qs = append(qs, miss) // very likely misses
	}

	type result struct {
		vals []uint64
		fnd  []bool
	}
	results := map[string]result{}

	// CPU implicit.
	impl, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]uint64, len(qs))
	f1 := make([]bool, len(qs))
	impl.LookupBatch(qs, v1, f1)
	results["cpu-implicit"] = result{v1, f1}

	// CPU regular.
	reg, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v2 := make([]uint64, len(qs))
	f2 := make([]bool, len(qs))
	reg.LookupBatch(qs, v2, f2)
	results["cpu-regular"] = result{v2, f2}

	// FAST.
	ft, err := fast.Build(pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	v3 := make([]uint64, len(qs))
	f3 := make([]bool, len(qs))
	ft.LookupBatch(qs, v3, f3)
	results["fast"] = result{v3, f3}

	// HB+ implicit and regular (hybrid path).
	for _, variant := range []core.Variant{core.Implicit, core.Regular} {
		hb, err := core.Build(pairs, core.Options{Variant: variant})
		if err != nil {
			t.Fatal(err)
		}
		v, f, _, err := hb.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		results["hb-"+variant.String()] = result{v, f}
		hb.Close()
	}

	ref := results["cpu-implicit"]
	for name, res := range results {
		for i := range qs {
			if res.fnd[i] != ref.fnd[i] || (res.fnd[i] && res.vals[i] != ref.vals[i]) {
				t.Fatalf("%s diverges from cpu-implicit at query %d (key %d)", name, i, qs[i])
			}
		}
	}
}

// TestRangeAgreement cross-checks range queries between the implicit and
// regular HB+ variants across selectivities.
func TestRangeAgreement(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](20000, 9)
	ti, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Implicit})
	if err != nil {
		t.Fatal(err)
	}
	defer ti.Close()
	tr, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, count := range []int{1, 7, 32, 100} {
		rqs := workload.RangeQueries(pairs, 200, count, uint64(count))
		for _, rq := range rqs {
			a := ti.RangeQuery(rq.Start, rq.Count, nil)
			b := tr.RangeQuery(rq.Start, rq.Count, nil)
			if len(a) != len(b) {
				t.Fatalf("count %d: lengths %d vs %d", count, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("count %d: diverges at %d", count, i)
				}
			}
		}
	}
}

// TestRebuildCycleImplicit stress-tests the implicit variant's only
// update path — repeated full rebuilds — keeping the replica exact.
func TestRebuildCycleImplicit(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](20000, 3)
	tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Implicit})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	for round := 1; round <= 4; round++ {
		pairs = hbtree.GeneratePairs[uint64](20000+round*5000, uint64(round))
		st, err := tree.Rebuild(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if st.SyncTime <= 0 {
			t.Fatal("no I-segment transfer charged")
		}
		if err := tree.VerifyReplica(); err != nil {
			t.Fatal(err)
		}
		qs := hbtree.ShuffledQueries(pairs, 1<<14, uint64(round))
		vals, fnd, _, err := tree.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if !fnd[i] || vals[i] != hbtree.ValueFor(q) {
				t.Fatalf("round %d: lookup %d failed", round, i)
			}
		}
	}
}
