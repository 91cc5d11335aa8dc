package simd

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hbtree/internal/keys"
)

// lowerBound is the reference implementation all kernels must match.
func lowerBound[K keys.Key](line []K, q K) int {
	return sort.Search(len(line), func(i int) bool { return q <= line[i] })
}

func sortedLine64(r *rand.Rand, n int) []uint64 {
	line := make([]uint64, n)
	for i := range line {
		line[i] = r.Uint64() % 1000
	}
	sort.Slice(line, func(i, j int) bool { return line[i] < line[j] })
	return line
}

func sortedLine32(r *rand.Rand, n int) []uint32 {
	line := make([]uint32, n)
	for i := range line {
		line[i] = r.Uint32() % 1000
	}
	sort.Slice(line, func(i, j int) bool { return line[i] < line[j] })
	return line
}

func TestKernelsMatchLowerBound64(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		line := sortedLine64(r, 8)
		q := r.Uint64() % 1100
		want := lowerBound(line, q)
		if got := SearchSequential(line, q); got != want {
			t.Fatalf("sequential(%v, %d) = %d, want %d", line, q, got, want)
		}
		if got := SearchLinear(line, q); got != want {
			t.Fatalf("linear(%v, %d) = %d, want %d", line, q, got, want)
		}
		if got := SearchHierarchical(line, q); got != want {
			t.Fatalf("hierarchical(%v, %d) = %d, want %d", line, q, got, want)
		}
	}
}

func TestKernelsMatchLowerBound32(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		line := sortedLine32(r, 16)
		q := r.Uint32() % 1100
		want := lowerBound(line, q)
		if got := SearchSequential(line, q); got != want {
			t.Fatalf("sequential(%v, %d) = %d, want %d", line, q, got, want)
		}
		if got := SearchLinear(line, q); got != want {
			t.Fatalf("linear(%v, %d) = %d, want %d", line, q, got, want)
		}
		if got := SearchHierarchical(line, q); got != want {
			t.Fatalf("hierarchical(%v, %d) = %d, want %d", line, q, got, want)
		}
	}
}

// TestKernelsQuick property-tests all kernels against the reference on
// arbitrary sorted 8-key lines and queries.
func TestKernelsQuick(t *testing.T) {
	f := func(raw [8]uint64, q uint64) bool {
		line := append([]uint64(nil), raw[:]...)
		sort.Slice(line, func(i, j int) bool { return line[i] < line[j] })
		want := lowerBound(line, q)
		return SearchSequential(line, q) == want &&
			SearchLinear(line, q) == want &&
			SearchHierarchical(line, q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelsQuick32(t *testing.T) {
	f := func(raw [16]uint32, q uint32) bool {
		line := append([]uint32(nil), raw[:]...)
		sort.Slice(line, func(i, j int) bool { return line[i] < line[j] })
		want := lowerBound(line, q)
		return SearchSequential(line, q) == want &&
			SearchLinear(line, q) == want &&
			SearchHierarchical(line, q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchDispatch(t *testing.T) {
	line := []uint64{1, 3, 5, 7, 9, 11, 13, 15}
	for _, a := range []Algorithm{Sequential, Linear, Hierarchical} {
		for q := uint64(0); q <= 16; q++ {
			want := lowerBound(line, q)
			if got := Search(a, line, q); got != want {
				t.Fatalf("%v: Search(%d) = %d, want %d", a, q, got, want)
			}
		}
	}
}

func TestSearchHierarchicalFallback(t *testing.T) {
	// Non-standard line lengths fall back to the linear kernel.
	line := []uint64{2, 4, 6, 8}
	for q := uint64(0); q <= 9; q++ {
		if got, want := SearchHierarchical(line, q), lowerBound(line, q); got != want {
			t.Fatalf("fallback Search(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		Sequential:    "sequential",
		Linear:        "linear-SIMD",
		Hierarchical:  "hierarchical-SIMD",
		Algorithm(42): "unknown",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestSearchPairsLine(t *testing.T) {
	maxK := keys.Max[uint64]()
	// Line with 3 real pairs and one empty slot.
	line := []uint64{10, 100, 20, 200, 30, 300, maxK, 0}
	if i, found := SearchPairsLine(line, 20); !found || i != 1 {
		t.Fatalf("SearchPairsLine(20) = (%d,%v)", i, found)
	}
	if i, found := SearchPairsLine(line, 15); found || i != 1 {
		t.Fatalf("SearchPairsLine(15) = (%d,%v), want (1,false)", i, found)
	}
	if i, found := SearchPairsLine(line, 31); found || i != 3 {
		t.Fatalf("SearchPairsLine(31) = (%d,%v), want (3,false)", i, found)
	}
	if _, found := SearchPairsLine(line, 5); found {
		t.Fatal("SearchPairsLine(5) found nonexistent key")
	}
}

func TestSearchEmptyAndBounds(t *testing.T) {
	if got := SearchSequential([]uint64{}, 5); got != 0 {
		t.Fatalf("empty sequential = %d", got)
	}
	if got := SearchLinear([]uint64{}, 5); got != 0 {
		t.Fatalf("empty linear = %d", got)
	}
	// Query above all keys returns len(line).
	line := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := SearchLinear(line, 100); got != 8 {
		t.Fatalf("above-all linear = %d", got)
	}
	if got := SearchHierarchical(line, 100); got != 8 {
		t.Fatalf("above-all hier = %d", got)
	}
}

func BenchmarkNodeSearch64(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	line := sortedLine64(r, 8)
	qs := make([]uint64, 1024)
	for i := range qs {
		qs[i] = r.Uint64() % 1100
	}
	for _, alg := range []Algorithm{Sequential, Linear, Hierarchical} {
		b.Run(alg.String(), func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				s += Search(alg, line, qs[i&1023])
			}
			sinkInt = s
		})
	}
}

var sinkInt int
