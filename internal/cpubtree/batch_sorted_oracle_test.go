package cpubtree

import (
	"slices"
	"testing"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// The sorted leaf stages run each tree's grouped leaf search and count
// distinct lines over the whole batch. The per-query sweeps below are
// the bodies they replaced; the tests hold the stages' results and
// counts to one sweep over the batch.

// searchLeavesSortedRange is the implicit sorted leaf stage's former
// body: one query at a time, counting a line whenever it differs from
// the previous query's.
func (t *ImplicitTree[K]) searchLeavesSortedRange(queries []K, lines []int32, values []K, found []bool, s, e int) int {
	distinct := 0
	prev := int32(-1)
	for i := s; i < e; i++ {
		if lines[i] != prev {
			distinct++
			prev = lines[i]
		}
		values[i], found[i] = t.SearchLeafLine(int(lines[i]), queries[i])
	}
	return distinct
}

// searchLeavesSortedRange is the regular sorted leaf stage's former
// body.
func (t *RegularTree[K]) searchLeavesSortedRange(queries []K, refs []LeafRef, values []K, found []bool, s, e int) int {
	distinct := 0
	prev := LeafRef{Leaf: -1, Line: -1}
	for i := s; i < e; i++ {
		if refs[i] != prev {
			distinct++
			prev = refs[i]
		}
		values[i], found[i] = t.SearchLeafLine(refs[i].Leaf, int(refs[i].Line), queries[i])
	}
	return distinct
}

// leafOracleSizes straddle a leaf-line group and the fan-out threshold,
// and end with a batch of several full chunks.
var leafOracleSizes = []int{1, leafGroup - 1, leafGroup, leafGroup + 1, 2047, 2048, 2049, 40000}

// leafOracleQueries returns n ascending queries from seed: keys of
// pairs, with a share of arbitrary (mostly absent) keys and duplicates,
// plus 0, MAX and a key above every pair.
func leafOracleQueries[K keys.Key](pairs []keys.Pair[K], n int, seed uint64) []K {
	r := workload.NewRNG(seed)
	qs := make([]K, n)
	for i := range qs {
		switch r.Intn(8) {
		case 0:
			if i > 0 {
				qs[i] = qs[r.Intn(i)]
				continue
			}
			fallthrough
		case 1:
			qs[i] = K(r.Uint64())
		default:
			qs[i] = pairs[r.Intn(len(pairs))].Key
		}
	}
	qs[0] = 0
	qs[n-1] = keys.Max[K]()
	qs[n/2] = pairs[len(pairs)-1].Key + 1
	slices.Sort(qs)
	return qs
}

// implicitLeavesMatchOracle checks SearchInnerBatch against
// SearchInner, then SearchLeavesBatchSorted against the oracle, on the
// sorted batch qs.
func implicitLeavesMatchOracle[K keys.Key](t *testing.T, tr *ImplicitTree[K], qs []K) {
	t.Helper()
	n := len(qs)
	lines := make([]int32, n)
	for i := range lines {
		lines[i] = 7 // SearchInnerBatch must overwrite every line
	}
	tr.SearchInnerBatch(qs, lines)
	for i, q := range qs {
		if int(lines[i]) != tr.SearchInner(q) {
			t.Fatalf("n=%d: SearchInnerBatch resolves key %d to line %d, SearchInner %d", n, q, lines[i], tr.SearchInner(q))
		}
	}
	gv, gf, wv, wf := make([]K, n), make([]bool, n), make([]K, n), make([]bool, n)
	got := tr.SearchLeavesBatchSorted(qs, lines, gv, gf)
	want := tr.searchLeavesSortedRange(qs, lines, wv, wf, 0, n)
	if !slices.Equal(gv, wv) || !slices.Equal(gf, wf) {
		t.Fatalf("n=%d: sorted leaf stage results differ from the oracle's", n)
	}
	if got != want {
		t.Fatalf("n=%d: %d distinct lines, oracle %d", n, got, want)
	}
}

// regularLeavesMatchOracle checks the regular SearchLeavesBatchSorted
// against the oracle on the sorted batch qs.
func regularLeavesMatchOracle[K keys.Key](t *testing.T, tr *RegularTree[K], qs []K) {
	t.Helper()
	n := len(qs)
	refs := make([]LeafRef, n)
	for i, q := range qs {
		leaf, line := tr.SearchToLeaf(q)
		refs[i] = LeafRef{Leaf: leaf, Line: int32(line)}
	}
	gv, gf, wv, wf := make([]K, n), make([]bool, n), make([]K, n), make([]bool, n)
	got := tr.SearchLeavesBatchSorted(qs, refs, gv, gf)
	want := tr.searchLeavesSortedRange(qs, refs, wv, wf, 0, n)
	if !slices.Equal(gv, wv) || !slices.Equal(gf, wf) {
		t.Fatalf("n=%d: sorted leaf stage results differ from the oracle's", n)
	}
	if got != want {
		t.Fatalf("n=%d: %d distinct lines, oracle %d", n, got, want)
	}
}

func leavesMatchOracle[K keys.Key](t *testing.T, seed uint64) {
	pairs := workload.Dataset[K](workload.Uniform, 1<<17, seed)
	for _, depth := range []int{0, 1, -1} {
		cfg := Config{Fanout: keys.PerLine[K](), Threads: 4, PipelineDepth: depth}
		impl, err := BuildImplicit(pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := BuildRegular(pairs, Config{Threads: 4, PipelineDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range leafOracleSizes {
			qs := leafOracleQueries(pairs, n, seed*1000+uint64(n))
			implicitLeavesMatchOracle(t, impl, qs)
			regularLeavesMatchOracle(t, reg, qs)
		}
	}
}

// TestSortedLeafStagesMatchOracle is the seeded property of both sorted
// leaf stages: at every size in leafOracleSizes, on four-worker trees
// of both key widths and at pipeline depths 16, 1 and off, results and
// the distinct-line counts equal the per-query oracle's over the whole
// batch; SearchInnerBatch's grouped descent equals
// SearchInner along the way.
func TestSortedLeafStagesMatchOracle(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { leavesMatchOracle[uint64](t, 71) })
	t.Run("uint32", func(t *testing.T) { leavesMatchOracle[uint32](t, 72) })
}
