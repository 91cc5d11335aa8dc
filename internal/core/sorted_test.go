package core

import (
	"sort"
	"testing"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// sortedPropQueries builds a query batch mixing present keys, missing
// keys, and duplicates, in random order — the full input space the
// sorted path must handle identically to the plain path.
func sortedPropQueries(pairs []keys.Pair[uint64], n int, seed uint64) []uint64 {
	r := workload.NewRNG(seed)
	qs := make([]uint64, n)
	for i := range qs {
		switch r.Intn(4) {
		case 0: // absent (with overwhelming probability)
			k := r.Uint64()
			if k == keys.Max[uint64]() {
				k--
			}
			qs[i] = k
		case 1: // duplicate an earlier query
			if i > 0 {
				qs[i] = qs[r.Intn(i)]
			} else {
				qs[i] = pairs[r.Intn(len(pairs))].Key
			}
		default: // present
			qs[i] = pairs[r.Intn(len(pairs))].Key
		}
	}
	return qs
}

// lookupSorted runs LookupBatchSortedInto into fresh result slices,
// failing the test on error.
func lookupSorted[K keys.Key](t *testing.T, tr *Tree[K], qs []K) ([]K, []bool, SearchStats) {
	t.Helper()
	vals, fnd := make([]K, len(qs)), make([]bool, len(qs))
	stats, err := tr.LookupBatchSortedInto(qs, vals, fnd)
	if err != nil {
		t.Fatal(err)
	}
	return vals, fnd, stats
}

// TestSortedMatchesUnsortedProperty is the core contract: over random
// key orders, duplicates and missing keys, LookupBatchSortedInto returns
// byte-identical results to LookupBatch, in caller order, for both
// variants, every strategy, and batch sizes spanning partial, exact and
// multi-bucket shapes.
func TestSortedMatchesUnsortedProperty(t *testing.T) {
	sizes := []int{1, 7, DefaultBucketSize - 1, DefaultBucketSize, DefaultBucketSize + 1, 5*DefaultBucketSize + 13}
	for _, v := range []Variant{Implicit, Regular} {
		for _, s := range []Strategy{Sequential, Pipelined, DoubleBuffered} {
			tr, pairs := build64(t, 60000, Options{Variant: v, Strategy: s})
			seed := uint64(1)
			for _, n := range sizes {
				qs := sortedPropQueries(pairs, n, seed)
				seed++
				bv, bf, _, err := tr.LookupBatch(qs)
				if err != nil {
					t.Fatal(err)
				}
				sv, sf, stats := lookupSorted(t, tr, qs)
				if !stats.Sorted {
					t.Fatalf("%v/%v: stats not flagged sorted", v, s)
				}
				for i := range qs {
					if sv[i] != bv[i] || sf[i] != bf[i] {
						t.Fatalf("%v/%v n=%d: sorted path diverges at %d (key %d): got (%d,%v), want (%d,%v)",
							v, s, n, i, qs[i], sv[i], sf[i], bv[i], bf[i])
					}
				}
			}
			tr.Close()
		}
	}
}

// TestSortedPresortedFastPath feeds the coalescer's contract — sorted
// ascending, duplicate-free — and checks results plus the absence of
// dedup work.
func TestSortedPresortedFastPath(t *testing.T) {
	for _, v := range []Variant{Implicit, Regular} {
		tr, pairs := build64(t, 50000, Options{Variant: v})
		qs := workload.SearchInput(pairs, 3*DefaultBucketSize, 8)
		sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
		uq := qs[:0:0]
		for i, q := range qs {
			if i == 0 || q != qs[i-1] {
				uq = append(uq, q)
			}
		}
		vals, fnd, stats := lookupSorted(t, tr, uq)
		checkBatch(t, tr, uq, vals, fnd)
		if stats.DedupFolded != 0 {
			t.Fatalf("%v: presorted distinct batch folded %d", v, stats.DedupFolded)
		}
		tr.Close()
	}
}

// TestSortedProbeAccounting checks the shared-descent win is real and
// consistently surfaced: NodeProbes below the unsorted baseline,
// ProbesSaved the exact complement, per-level counts summing to the
// total, and duplicate batches folding descents away entirely.
func TestSortedProbeAccounting(t *testing.T) {
	tr, pairs := build64(t, 200000, Options{Variant: Implicit})
	qs := workload.SearchInput(pairs, DefaultBucketSize, 4)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })

	_, _, stats := lookupSorted(t, tr, qs)
	baseline := int64(len(qs)) * int64(tr.implDesc.Height)
	if stats.NodeProbes <= 0 || stats.NodeProbes >= baseline {
		t.Fatalf("NodeProbes = %d, want in (0, %d)", stats.NodeProbes, baseline)
	}
	if stats.ProbesSaved != baseline-stats.NodeProbes {
		t.Fatalf("ProbesSaved = %d, want %d", stats.ProbesSaved, baseline-stats.NodeProbes)
	}
	var sum int64
	for _, c := range stats.LevelProbes {
		sum += c
	}
	if sum != stats.NodeProbes {
		t.Fatalf("per-level probes sum %d != NodeProbes %d", sum, stats.NodeProbes)
	}
	// The root level is shared by runs: one probe per chunk leader (the
	// kernel fans a bucket across workers), far below one per query.
	if stats.LevelProbes[0] < int64(stats.Buckets) || stats.LevelProbes[0] > int64(len(qs))/8 {
		t.Fatalf("root-level probes = %d, want small (bucket/chunk count)", stats.LevelProbes[0])
	}
	if stats.LeafLines <= 0 || stats.LeafLines > len(qs) {
		t.Fatalf("LeafLines = %d out of range", stats.LeafLines)
	}

	// An all-duplicate bucket folds to a single descent.
	dup := make([]uint64, DefaultBucketSize)
	for i := range dup {
		dup[i] = pairs[123].Key
	}
	vals, fnd, dstats := lookupSorted(t, tr, dup)
	checkBatch(t, tr, dup, vals, fnd)
	if dstats.DedupFolded != len(dup)-1 {
		t.Fatalf("DedupFolded = %d, want %d", dstats.DedupFolded, len(dup)-1)
	}
	if dstats.NodeProbes != int64(tr.implDesc.Height) {
		t.Fatalf("all-duplicate bucket probed %d nodes, want %d", dstats.NodeProbes, tr.implDesc.Height)
	}
}

// TestSortedRegularProbeAccounting mirrors the probe checks on the
// pointer-based variant (3 transactions per fresh node, +1 on an inner
// sub-node change).
func TestSortedRegularProbeAccounting(t *testing.T) {
	tr, pairs := build64(t, 200000, Options{Variant: Regular})
	qs := workload.SearchInput(pairs, DefaultBucketSize, 6)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	_, _, stats := lookupSorted(t, tr, qs)
	baseline := int64(len(qs)) * int64(tr.regDesc.Height) * 3
	if stats.NodeProbes <= 0 || stats.NodeProbes >= baseline {
		t.Fatalf("NodeProbes = %d, want in (0, %d)", stats.NodeProbes, baseline)
	}
	if stats.ProbesSaved != baseline-stats.NodeProbes {
		t.Fatalf("ProbesSaved = %d, want %d", stats.ProbesSaved, baseline-stats.NodeProbes)
	}
	var sum int64
	for _, c := range stats.LevelProbes {
		sum += c
	}
	if sum != stats.NodeProbes {
		t.Fatalf("per-level probes sum %d != NodeProbes %d", sum, stats.NodeProbes)
	}
}

// TestSortedLoadBalanceDelegates: the balanced executor has no sorted
// form; LookupBatchSortedInto must still answer correctly through it.
func TestSortedLoadBalanceDelegates(t *testing.T) {
	tr, pairs := build64(t, 150000, Options{Variant: Implicit, LoadBalance: true})
	qs := sortedPropQueries(pairs, 3*DefaultBucketSize, 21)
	bv, bf, _, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	sv, sf, _ := lookupSorted(t, tr, qs)
	for i := range qs {
		if sv[i] != bv[i] || sf[i] != bf[i] {
			t.Fatalf("load-balanced sorted path diverges at %d", i)
		}
	}
}

// TestSortedEmptyAndShortResults covers the trivial batch and the
// result-slice length check.
func TestSortedEmptyAndShortResults(t *testing.T) {
	tr, pairs := build64(t, 1000, Options{Variant: Implicit})
	if stats, err := tr.LookupBatchSortedInto(nil, nil, nil); err != nil || stats.Queries != 0 {
		t.Fatalf("empty sorted batch mishandled: %+v %v", stats, err)
	}
	qs := []uint64{pairs[0].Key, pairs[1].Key}
	if _, err := tr.LookupBatchSortedInto(qs, make([]uint64, 1), make([]bool, 2)); err == nil {
		t.Fatal("short value slice accepted")
	}
}
