// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per figure, Figures 7-21), plus ablation
// benches for the design decisions called out in DESIGN.md and
// wall-clock micro-benchmarks of the functional trees.
//
// Figure benches drive the experiment harness at a reduced scale and
// report the headline simulated metric (MQPS or milliseconds) via
// b.ReportMetric; the full-scale tables come from `go run ./cmd/hbbench`.
package hbtree_test

import (
	"strconv"
	"testing"

	"hbtree"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/fast"
	"hbtree/internal/harness"
	"hbtree/internal/platform"
	"hbtree/internal/simd"
	"hbtree/internal/workload"
)

// benchCfg is the reduced-scale configuration for figure regeneration
// inside the benchmark suite.
func benchCfg() harness.Config {
	return harness.Config{Quick: true, Sizes: []int{1 << 19}, Queries: 1 << 16, Seed: 42}
}

// cellF parses a numeric cell of a harness table.
func cellF(b *testing.B, s string) float64 {
	b.Helper()
	for len(s) > 0 && (s[len(s)-1] == 'x' || s[len(s)-1] == '%') {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// runFigure regenerates one figure per iteration and returns the last
// run's tables.
func runFigure(b *testing.B, id string) []harness.Table {
	b.Helper()
	var tables []harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = harness.Run(id, benchCfg())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return tables
}

func BenchmarkFig07PageConfig(b *testing.B) {
	t := runFigure(b, "fig7")
	last := t[1].Rows[len(t[1].Rows)-1]
	b.ReportMetric(cellF(b, last[3]), "MQPS-1G/1G")
	b.ReportMetric(cellF(b, t[0].Rows[len(t[0].Rows)-1][1]), "TLBmiss/q-4K")
}

func BenchmarkFig08NodeSearch(b *testing.B) {
	t := runFigure(b, "fig8")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[4]), "MQPS-hier")
	b.ReportMetric(cellF(b, last[5]), "SWP-gain")
}

func BenchmarkFig09FAST(b *testing.B) {
	t := runFigure(b, "fig9")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[3]), "Bplus/FAST")
}

func BenchmarkFig10BucketStrategy(b *testing.B) {
	t := runFigure(b, "fig10")
	for _, r := range t[0].Rows {
		if r[0] == "implicit" {
			b.ReportMetric(cellF(b, r[3]), "MQPS-doublebuf")
			b.ReportMetric(cellF(b, r[4]), "gain-%")
		}
	}
}

func BenchmarkFig11BucketSize(b *testing.B) {
	t := runFigure(b, "fig11")
	b.ReportMetric(cellF(b, t[0].Rows[1][1]), "MQPS-16K")
	b.ReportMetric(cellF(b, t[1].Rows[1][1]), "lat-ms-16K")
}

func BenchmarkFig12Skew(b *testing.B) {
	t := runFigure(b, "fig12")
	for _, r := range t[0].Rows {
		if r[0] == "Zipf" {
			b.ReportMetric(cellF(b, r[1]), "zipf-gain")
		}
	}
}

func BenchmarkFig13Update(b *testing.B) {
	t := runFigure(b, "fig13")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[2]), "MUPS-asyncMT")
	b.ReportMetric(cellF(b, last[3]), "MUPS-sync")
}

func BenchmarkFig14BatchSize(b *testing.B) {
	t := runFigure(b, "fig14")
	b.ReportMetric(cellF(b, t[0].Rows[0][1]), "sync-ms-small")
	b.ReportMetric(cellF(b, t[0].Rows[len(t[0].Rows)-1][2]), "async-ms-large")
}

func BenchmarkFig15ImplicitUpdate(b *testing.B) {
	t := runFigure(b, "fig15")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[4]), "xfer-share-%")
}

func BenchmarkFig16Throughput(b *testing.B) {
	t := runFigure(b, "fig16")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[3]), "MQPS-HBimpl")
	b.ReportMetric(cellF(b, last[5]), "HB/CPU-gain")
}

func BenchmarkFig17Range(b *testing.B) {
	t := runFigure(b, "fig17")
	b.ReportMetric(cellF(b, t[0].Rows[0][5]), "adv-%-1match")
	b.ReportMetric(cellF(b, t[0].Rows[len(t[0].Rows)-1][5]), "adv-%-32match")
}

func BenchmarkFig18LoadBalance(b *testing.B) {
	t := runFigure(b, "fig18")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[4]), "MQPS-LB")
	b.ReportMetric(cellF(b, last[3]), "MQPS-noLB")
}

func BenchmarkFig19CPUOnly(b *testing.B) {
	t := runFigure(b, "fig19")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[2]), "MQPS-HBcpu")
}

func BenchmarkFig20Pipelining(b *testing.B) {
	t := runFigure(b, "fig20")
	for _, r := range t[0].Rows {
		if r[0] == "16" {
			b.ReportMetric(cellF(b, r[1]), "MQPS-depth16")
		}
	}
}

func BenchmarkFig21Mixed(b *testing.B) {
	t := runFigure(b, "fig21")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[1]), "MOPS-async-100%upd")
}

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

// --- extension benches (paper Section 7 future work) ------------------

func BenchmarkExtGPUAssistedUpdate(b *testing.B) {
	t := runFigure(b, "ext-update")
	last := t[0].Rows[len(t[0].Rows)-1]
	b.ReportMetric(cellF(b, last[3]), "host-speedup")
}

func BenchmarkFig0506PipelineTrace(b *testing.B) {
	t := runFigure(b, "fig5-6")
	if len(t) != 3 {
		b.Fatal("missing strategy charts")
	}
}
