package workload

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hbtree/internal/keys"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	if NewRNG(7).Uint64() == c.Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestIntnAndFloat(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestDistinctKeysSortedUnique(t *testing.T) {
	for _, d := range []Distribution{Uniform, Normal, Gamma, Zipf} {
		ks := DistinctKeys[uint64](d, 5000, 42)
		if len(ks) != 5000 {
			t.Fatalf("%v: got %d keys", d, len(ks))
		}
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] {
				t.Fatalf("%v: not sorted/unique at %d", d, i)
			}
		}
		if ks[len(ks)-1] == keys.Max[uint64]() {
			t.Fatalf("%v: sentinel generated", d)
		}
	}
}

func TestDistinctKeys32(t *testing.T) {
	ks := DistinctKeys[uint32](Uniform, 100000, 9)
	if len(ks) != 100000 {
		t.Fatalf("got %d", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatal("not sorted/unique")
		}
	}
}

func TestDatasetValues(t *testing.T) {
	pairs := Dataset[uint64](Uniform, 1000, 5)
	for _, p := range pairs {
		if p.Value != ValueFor(p.Key) {
			t.Fatalf("value mismatch for key %d", p.Key)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := make([]int, 1000)
	for i := range s {
		s[i] = i
	}
	Shuffle(s, 11)
	sorted := append([]int(nil), s...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatal("shuffle lost elements")
		}
	}
	moved := 0
	for i, v := range s {
		if v != i {
			moved++
		}
	}
	if moved < 900 {
		t.Fatalf("shuffle barely moved anything: %d", moved)
	}
}

func TestSearchInputCoversDataset(t *testing.T) {
	pairs := Dataset[uint64](Uniform, 500, 3)
	qs := SearchInput(pairs, 500, 7)
	seen := make(map[uint64]bool)
	for _, q := range qs {
		seen[q] = true
	}
	for _, p := range pairs {
		if !seen[p.Key] {
			t.Fatalf("key %d missing from search input", p.Key)
		}
	}
	// Longer inputs wrap around.
	qs2 := SearchInput(pairs, 1200, 7)
	if len(qs2) != 1200 {
		t.Fatalf("len = %d", len(qs2))
	}
}

func TestSkewedDistributionsShape(t *testing.T) {
	const n = 200000
	maxK := float64(keys.Max[uint64]())
	mean := func(d Distribution) float64 {
		qs := SkewedQueries[uint64](d, n, 13)
		var s float64
		for _, q := range qs {
			s += float64(q) / maxK
		}
		return s / n
	}
	if m := mean(Uniform); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean %v", m)
	}
	if m := mean(Normal); math.Abs(m-0.5) > 0.02 {
		t.Fatalf("normal mean %v", m)
	}
	// Zipf(2) concentrates near zero.
	if m := mean(Zipf); m > 0.05 {
		t.Fatalf("zipf mean %v not concentrated", m)
	}
	// Gamma is right-skewed with mode below the mean, both well under 1.
	if m := mean(Gamma); m < 0.1 || m > 0.5 {
		t.Fatalf("gamma mean %v implausible", m)
	}
}

func TestZipfConcentration(t *testing.T) {
	qs := SkewedQueries[uint64](Zipf, 100000, 21)
	counts := make(map[uint64]int)
	for _, q := range qs {
		counts[q]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// Rank 1 should absorb a large share under alpha=2.
	if top < 100000/4 {
		t.Fatalf("zipf top value only %d occurrences", top)
	}
}

func TestRangeQueriesWithinBounds(t *testing.T) {
	pairs := Dataset[uint64](Uniform, 10000, 4)
	rqs := RangeQueries(pairs, 500, 32, 9)
	if len(rqs) != 500 {
		t.Fatalf("got %d", len(rqs))
	}
	keySet := make(map[uint64]bool, len(pairs))
	for _, p := range pairs {
		keySet[p.Key] = true
	}
	for _, rq := range rqs {
		if rq.Count != 32 {
			t.Fatalf("count %d", rq.Count)
		}
		if !keySet[rq.Start] {
			t.Fatalf("range start %d not a dataset key", rq.Start)
		}
	}
}

func TestUpdateBatchComposition(t *testing.T) {
	pairs := Dataset[uint64](Uniform, 5000, 6)
	present := make(map[uint64]bool)
	for _, p := range pairs {
		present[p.Key] = true
	}
	ops := UpdateBatch(pairs, 2000, 0.4, 17)
	if len(ops) != 2000 {
		t.Fatalf("got %d ops", len(ops))
	}
	dels, ins := 0, 0
	seen := make(map[uint64]bool)
	for _, op := range ops {
		if seen[op.Pair.Key] {
			t.Fatalf("duplicate op key %d", op.Pair.Key)
		}
		seen[op.Pair.Key] = true
		if op.Delete {
			dels++
			if !present[op.Pair.Key] {
				t.Fatal("delete of absent key")
			}
		} else {
			ins++
			if present[op.Pair.Key] {
				t.Fatal("insert of present key")
			}
			if op.Pair.Value != ValueFor(op.Pair.Key) {
				t.Fatal("insert value wrong")
			}
		}
	}
	if dels < 600 || dels > 1000 {
		t.Fatalf("delete fraction off: %d/%d", dels, len(ops))
	}
	_ = ins
}

// TestQuickDistinct property-tests that DistinctKeys always returns the
// requested count of strictly increasing keys.
func TestQuickDistinct(t *testing.T) {
	f := func(seed uint64, n uint16, dRaw uint8) bool {
		d := Distribution(dRaw % 4)
		count := int(n)%2000 + 1
		ks := DistinctKeys[uint64](d, count, seed)
		if len(ks) != count {
			return false
		}
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionString(t *testing.T) {
	names := map[Distribution]string{Uniform: "Uniform", Normal: "Normal", Gamma: "Gamma", Zipf: "Zipf", Distribution(9): "unknown"}
	for d, want := range names {
		if d.String() != want {
			t.Fatalf("String(%d) = %q", int(d), d.String())
		}
	}
}

// updateBatchMap is UpdateBatch with a map of every present key, the
// membership test it used before it took a binary search: the oracle of
// TestUpdateBatchMatchesMapOracle.
func updateBatchMap[K keys.Key](pairs []keys.Pair[K], n int, deleteFrac float64, seed uint64) []UpdateOp[K] {
	r := NewRNG(seed)
	present := make(map[K]struct{}, len(pairs))
	for _, p := range pairs {
		present[p.Key] = struct{}{}
	}
	out := make([]UpdateOp[K], 0, n)
	used := make(map[K]struct{}, n)
	for len(out) < n {
		if r.Float64() < deleteFrac && len(pairs) > 0 {
			k := pairs[r.Intn(len(pairs))].Key
			if _, dup := used[k]; dup {
				continue
			}
			used[k] = struct{}{}
			out = append(out, UpdateOp[K]{Pair: keys.Pair[K]{Key: k}, Delete: true})
			continue
		}
		k := Draw[K](Uniform, r)
		if _, ok := present[k]; ok {
			continue
		}
		if _, dup := used[k]; dup {
			continue
		}
		used[k] = struct{}{}
		out = append(out, UpdateOp[K]{Pair: keys.Pair[K]{Key: k, Value: ValueFor(k)}})
	}
	return out
}

// TestUpdateBatchMatchesMapOracle pins UpdateBatch's binary search to
// the map oracle on sorted input: a dataset, keys the seed's inserts
// draw (so they hit present keys), and no pairs at all.
func TestUpdateBatchMatchesMapOracle(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { checkUpdateBatchMatchesMapOracle[uint64](t) })
	t.Run("uint32", func(t *testing.T) { checkUpdateBatchMatchesMapOracle[uint32](t) })
}

func checkUpdateBatchMatchesMapOracle[K keys.Key](t *testing.T) {
	sorted := Dataset[K](Uniform, 1<<14, 5)
	// The first keys the seed draws, sorted: inserts hit present keys.
	var hits []keys.Pair[K]
	for _, op := range updateBatchMap[K](nil, 64, 0, 17) {
		hits = append(hits, op.Pair)
	}
	slices.SortFunc(hits, func(a, b keys.Pair[K]) int { return cmp.Compare(a.Key, b.Key) })
	inputs := map[string][]keys.Pair[K]{"sorted": sorted, "hits": hits, "empty": nil}
	for name, pairs := range inputs {
		for _, frac := range []float64{0, 0.3, 1} {
			if len(pairs) == 0 && frac > 0 {
				continue
			}
			n := 100 // deletes draw distinct pairs: at most len(pairs)
			if frac > 0 {
				n = min(n, len(pairs)/2)
			}
			got := UpdateBatch(pairs, n, frac, 17)
			want := updateBatchMap(pairs, n, frac, 17)
			if len(got) != len(want) {
				t.Fatalf("%s deleteFrac=%g: %d ops, oracle %d", name, frac, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s deleteFrac=%g: op %d = %+v, oracle %+v", name, frac, i, got[i], want[i])
				}
			}
		}
	}
}
