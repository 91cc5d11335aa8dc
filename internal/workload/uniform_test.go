package workload

import (
	"fmt"
	"testing"

	"hbtree/internal/keys"
)

// TestUniformDatasetMatchesDrawLoop: the counting path and the
// draw-sort-dedup loop it replaces for Uniform yield the same pairs, at
// sizes where rank n falls on and around a bucket boundary and at the
// 32-bit sizes where the first batch holds duplicates.
func TestUniformDatasetMatchesDrawLoop(t *testing.T) {
	sizes := []int{1, 2, 17, 2047, 2048, 2049, 1<<16 - 1, 1<<16 + 1, 1<<20 + 3}
	for _, seed := range []uint64{1, 7, 42} {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				if n > 1<<16+1 && testing.Short() {
					t.Skip("2^20-pair datasets skipped in -short mode")
				}
				checkUniformMatchesDrawLoop[uint32](t, n, firstBatch(n), seed)
				checkUniformMatchesDrawLoop[uint64](t, n, firstBatch(n), seed)
			})
		}
	}
	// A first batch too small to hold n distinct keys sends the counting
	// path to the loop, which must still give the full dataset: one of
	// fewer than n keys before the scatter, and one of exactly n 32-bit
	// keys, a few of them duplicates, after the dedup.
	t.Run("fallback", func(t *testing.T) {
		checkUniformMatchesDrawLoop[uint32](t, 5000, 4000, 3)
		checkUniformMatchesDrawLoop[uint64](t, 5000, 4000, 3)
		checkUniformMatchesDrawLoop[uint32](t, 1<<18, 1<<18, 3)
	})
}

func checkUniformMatchesDrawLoop[K keys.Key](t *testing.T, n, batch int, seed uint64) {
	t.Helper()
	got := uniformDataset[K](n, batch, seed)
	want := drawLoopDataset[K](Uniform, n, seed)
	if len(got) != len(want) {
		t.Fatalf("uint%d: %d pairs, want %d", 8*keys.Size[K](), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("uint%d: pair %d is %v, want %v", 8*keys.Size[K](), i, got[i], want[i])
		}
	}
}

// TestDatasetNonPositive: a dataset of no pairs, or of a negative count,
// is empty rather than a panic.
func TestDatasetNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -1 << 20} {
		for _, d := range []Distribution{Uniform, Normal, Gamma, Zipf} {
			if got := Dataset[uint64](d, n, 1); got == nil || len(got) != 0 {
				t.Errorf("Dataset(%v, %d) = %v, want an empty slice", d, n, got)
			}
			if got := DistinctKeys[uint32](d, n, 1); got == nil || len(got) != 0 {
				t.Errorf("DistinctKeys(%v, %d) = %v, want an empty slice", d, n, got)
			}
		}
	}
}

// BenchmarkDatasetUniform times the bulk-load dataset hbserve builds on
// every start (2^20 64-bit pairs).
func BenchmarkDatasetUniform(b *testing.B) {
	for range b.N {
		benchPairs = Dataset[uint64](Uniform, 1<<20, 42)
	}
}

var benchPairs []keys.Pair[uint64]
