// Wall-clock micro-benchmarks of the functional trees, plus ablation
// benches for the design decisions called out in DESIGN.md.
//
// The paper's figures are not re-run here: `go run ./cmd/hbbench -run
// <id>` prints one, and TestFiguresGolden (internal/harness) pins every
// cell of `hbbench -run all -quick` against testdata/figures.golden.
package hbtree_test

import (
	"testing"

	"hbtree"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/fast"
	"hbtree/internal/platform"
	"hbtree/internal/simd"
	"hbtree/internal/workload"
)

// --- wall-clock micro-benchmarks of the functional trees -------------

const benchTreeSize = 1 << 20

func benchPairs() []hbtree.Pair[uint64] {
	return workload.Dataset[uint64](workload.Uniform, benchTreeSize, 42)
}

func BenchmarkWallImplicitLookup(b *testing.B) {
	pairs := benchPairs()
	t, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{NodeSearch: simd.Hierarchical})
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.SearchInput(pairs, 1<<16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(qs[i&(len(qs)-1)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkWallRegularLookup(b *testing.B) {
	pairs := benchPairs()
	t, err := cpubtree.BuildRegular(pairs, cpubtree.Config{NodeSearch: simd.Hierarchical})
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.SearchInput(pairs, 1<<16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(qs[i&(len(qs)-1)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkWallFASTLookup(b *testing.B) {
	pairs := benchPairs()
	t, err := fast.Build(pairs, 1)
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.SearchInput(pairs, 1<<16, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(qs[i&(len(qs)-1)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkWallHybridBatch(b *testing.B) {
	pairs := benchPairs()
	t, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	qs := hbtree.ShuffledQueries(pairs, 1<<16, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, stats, err := t.LookupBatch(qs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.ThroughputQPS/1e6, "simMQPS")
	}
}

func BenchmarkWallRegularInsert(b *testing.B) {
	pairs := benchPairs()
	t, err := cpubtree.BuildRegular(pairs, cpubtree.Config{LeafFill: 0.7})
	if err != nil {
		b.Fatal(err)
	}
	r := workload.NewRNG(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := r.Uint64()
		if k == ^uint64(0) {
			k--
		}
		if _, err := t.Insert(k, k); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md section 4) --------------------------

// BenchmarkAblationIndexLine compares the regular tree's three-line node
// search (index line + key line + reference) against scanning every key
// line, quantifying the cache-blocking win of Figure 2(c).
func BenchmarkAblationIndexLine(b *testing.B) {
	pairs := benchPairs()
	t, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.SearchInput(pairs, 1<<16, 3)
	b.Run("index-line", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.Lookup(qs[i&(len(qs)-1)])
		}
	})
	b.Run("scan-all-lines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.LookupScanAblation(qs[i&(len(qs)-1)])
		}
	})
}

// BenchmarkAblationNodeSearch compares the three in-node kernels inside
// full tree lookups (complements the line-level bench in internal/simd).
func BenchmarkAblationNodeSearch(b *testing.B) {
	pairs := benchPairs()
	for _, alg := range []simd.Algorithm{simd.Sequential, simd.Linear, simd.Hierarchical} {
		t, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{NodeSearch: alg})
		if err != nil {
			b.Fatal(err)
		}
		qs := workload.SearchInput(pairs, 1<<16, 3)
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.Lookup(qs[i&(len(qs)-1)])
			}
		})
	}
}

// BenchmarkAblationLeafSize measures range scans against the big-leaf
// regular layout vs the single-line implicit layout (the design point of
// Section 4.1's "bigger leaf nodes").
func BenchmarkAblationLeafSize(b *testing.B) {
	pairs := benchPairs()
	impl, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{})
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rqs := workload.RangeQueries(pairs, 1<<12, 32, 5)
	var out []hbtree.Pair[uint64]
	b.Run("implicit-lines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rq := rqs[i&(len(rqs)-1)]
			out = impl.RangeQuery(rq.Start, rq.Count, out[:0])
		}
	})
	b.Run("regular-bigleaf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rq := rqs[i&(len(rqs)-1)]
			out = reg.RangeQuery(rq.Start, rq.Count, out[:0])
		}
	})
}

// BenchmarkAblationDiscovery compares the cost of Algorithm 1 against an
// exhaustive (D, R) sweep; both land on near-identical parameters (see
// TestDiscoveryNearOptimal) but discovery needs far fewer samples.
func BenchmarkAblationDiscovery(b *testing.B) {
	pairs := benchPairs()
	t, err := core.Build(pairs, core.Options{Machine: platform.M2(), LoadBalance: true})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	b.Run("algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.Discover()
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best := core.Balance{D: 0, R: 1}
			bestCost := -1.0
			for d := 0; d <= t.Height()-2; d++ {
				for r := 0.0; r <= 1.0; r += 0.05 {
					if err := t.SetBalance(core.Balance{D: d, R: r}); err != nil {
						b.Fatal(err)
					}
					g, c := t.SampleBalance(core.Balance{D: d, R: r})
					cost := g.Seconds()
					if c > g {
						cost = c.Seconds()
					}
					if bestCost < 0 || cost < bestCost {
						bestCost, best = cost, core.Balance{D: d, R: r}
					}
				}
			}
			_ = best
		}
	})
}
