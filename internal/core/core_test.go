package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/platform"
	"hbtree/internal/vclock"
	"hbtree/internal/workload"
)

func build64(t testing.TB, n int, opt Options) (*Tree[uint64], []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
	tr, err := Build(pairs, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(tr.Close)
	return tr, pairs
}

func checkBatch(t *testing.T, tr *Tree[uint64], qs []uint64, vals []uint64, fnd []bool) {
	t.Helper()
	for i, q := range qs {
		if !fnd[i] || vals[i] != workload.ValueFor(q) {
			t.Fatalf("query %d (key %d): got (%d,%v), want (%d,true)", i, q, vals[i], fnd[i], workload.ValueFor(q))
		}
	}
}

func TestHybridLookupImplicit(t *testing.T) {
	tr, pairs := build64(t, 50000, Options{Variant: Implicit})
	qs := workload.SearchInput(pairs, 40000, 3)
	vals, fnd, stats, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, tr, qs, vals, fnd)
	if stats.Buckets != (len(qs)+stats.BucketSize-1)/stats.BucketSize {
		t.Fatalf("buckets = %d", stats.Buckets)
	}
	if stats.ThroughputQPS <= 0 || stats.SimTime <= 0 {
		t.Fatalf("bad stats: %+v", stats)
	}
}

func TestHybridLookupRegular(t *testing.T) {
	tr, pairs := build64(t, 80000, Options{Variant: Regular})
	qs := workload.SearchInput(pairs, 50000, 5)
	vals, fnd, _, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, tr, qs, vals, fnd)
}

func TestHybridLookup32(t *testing.T) {
	pairs := workload.Dataset[uint32](workload.Uniform, 40000, 7)
	for _, v := range []Variant{Implicit, Regular} {
		tr, err := Build(pairs, Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		qs := workload.SearchInput(pairs, 20000, 9)
		vals, fnd, _, err := tr.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if !fnd[i] || vals[i] != workload.ValueFor(q) {
				t.Fatalf("%v: query %d wrong", v, i)
			}
		}
		tr.Close()
	}
}

func TestHybridMissingKeys(t *testing.T) {
	tr, pairs := build64(t, 20000, Options{Variant: Implicit})
	present := make(map[uint64]bool)
	for _, p := range pairs {
		present[p.Key] = true
	}
	r := workload.NewRNG(77)
	qs := make([]uint64, 10000)
	for i := range qs {
		qs[i] = r.Uint64()
		if qs[i] == keys.Max[uint64]() {
			qs[i]--
		}
	}
	_, fnd, _, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if fnd[i] != present[q] {
			t.Fatalf("query %d (key %d): found=%v, want %v", i, q, fnd[i], present[q])
		}
	}
}

// TestGPUReadsReplica corrupts the host I-segment after Build and checks
// that hybrid lookups still succeed — proving the kernel traverses the
// device-resident replica, not host memory.
// TestGPUReadsReplica: the GPU path descends the device replica, the
// CPU path the host's inner array. The replica is pointed at a copy of
// the host array with every key MAX, which routes every query to leaf
// line 0: the GPU path then finds only that line's keys, and the CPU
// path still finds every key.
func TestGPUReadsReplica(t *testing.T) {
	tr, pairs := build64(t, 30000, Options{Variant: Implicit})
	pointReplicaAtMax(t, tr)
	qs := workload.SearchInput(pairs, DefaultBucketSize, 1)
	vals, fnd, _, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	line0 := pairs[keys.PerLine[uint64]()/2-1].Key
	for i, q := range qs {
		if want := q <= line0; fnd[i] != want || want && vals[i] != workload.ValueFor(q) {
			t.Fatalf("GPU path, query %d (key %d): got (%d, %v); the replica routes it to leaf line 0", i, q, vals[i], fnd[i])
		}
	}
	tr.LookupBatchCPUInto(qs, vals, fnd)
	checkBatch(t, tr, qs, vals, fnd)
}

// pointReplicaAtMax points tr's implicit replica at a copy of its inner
// array whose every key is MAX.
func pointReplicaAtMax(t *testing.T, tr *Tree[uint64]) {
	t.Helper()
	inner, _, _, _ := tr.impl.InnerArray()
	scribbled := make([]uint64, len(inner))
	for i := range scribbled {
		scribbled[i] = keys.Max[uint64]()
	}
	if _, err := tr.isegBuf.Mirror([][]uint64{scribbled}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyOrdering(t *testing.T) {
	// Double-buffered >= pipelined >= sequential throughput (Figure 10);
	// sequential latency is the lowest.
	pairs := workload.Dataset[uint64](workload.Uniform, 200000, 4)
	qs := workload.SearchInput(pairs, 20*DefaultBucketSize, 2)
	var thr [3]float64
	var lat [3]vclock.Duration
	for i, s := range []Strategy{Sequential, Pipelined, DoubleBuffered} {
		tr, err := Build(pairs, Options{Variant: Implicit, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		vals, fnd, stats, err := tr.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, tr, qs, vals, fnd)
		thr[i] = stats.ThroughputQPS
		lat[i] = stats.AvgLatency
		tr.Close()
	}
	if !(thr[2] >= thr[1] && thr[1] >= thr[0]) {
		t.Fatalf("strategy throughput not monotone: %v", thr)
	}
	if thr[2] < 1.5*thr[0] {
		t.Fatalf("double buffering gain too small: %v vs %v", thr[2], thr[0])
	}
	if lat[0] > lat[2] {
		t.Fatalf("sequential latency %v should not exceed double-buffered %v", lat[0], lat[2])
	}
}

func TestPipelineAlgebra(t *testing.T) {
	// The double-buffered steady-state bucket period must approach
	// max(T2, T4) and the sequential period T1+T2+T3+T4 (Section 5.4).
	pairs := workload.Dataset[uint64](workload.Uniform, 300000, 9)
	qs := workload.SearchInput(pairs, 40*DefaultBucketSize, 3)

	seqTr, err := Build(pairs, Options{Variant: Implicit, Strategy: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer seqTr.Close()
	_, _, seqStats, err := seqTr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	wantSeq := seqStats.T1 + seqStats.T2 + seqStats.T3 + seqStats.T4
	gotSeq := seqStats.SimTime / vclock.Duration(seqStats.Buckets)
	if ratio := float64(gotSeq) / float64(wantSeq); ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("sequential period %v, want %v", gotSeq, wantSeq)
	}

	dbTr, err := Build(pairs, Options{Variant: Implicit, Strategy: DoubleBuffered})
	if err != nil {
		t.Fatal(err)
	}
	defer dbTr.Close()
	_, _, dbStats, err := dbTr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	want := vclock.Max(dbStats.T2, dbStats.T4)
	got := dbStats.SimTime / vclock.Duration(dbStats.Buckets)
	if ratio := float64(got) / float64(want); ratio < 0.95 || ratio > 1.15 {
		t.Fatalf("double-buffered period %v, want ~max(T2,T4)=%v", got, want)
	}
}

func TestLoadBalancedLookup(t *testing.T) {
	for _, v := range []Variant{Implicit, Regular} {
		pairs := workload.Dataset[uint64](workload.Uniform, 150000, 8)
		tr, err := Build(pairs, Options{Variant: v, Machine: platform.M2(), LoadBalance: true})
		if err != nil {
			t.Fatal(err)
		}
		b := tr.Discover()
		if b.R < 0 || b.R > 1 || b.D < 0 || b.D > tr.maxD() {
			t.Fatalf("%v: discovery out of range: %+v", v, b)
		}
		qs := workload.SearchInput(pairs, 5*DefaultBucketSize, 6)
		vals, fnd, stats, err := tr.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if !fnd[i] || vals[i] != workload.ValueFor(q) {
				t.Fatalf("%v: LB query %d (key %d) wrong: (%d,%v)", v, i, q, vals[i], fnd[i])
			}
		}
		if stats.ThroughputQPS <= 0 {
			t.Fatalf("%v: no throughput", v)
		}
		tr.Close()
	}
}

func TestLoadBalanceExplicitParams(t *testing.T) {
	tr, pairs := build64(t, 150000, Options{Variant: Implicit, LoadBalance: true})
	for _, b := range []Balance{{D: 0, R: 1}, {D: 1, R: 0.5}, {D: tr.maxD(), R: 0.25}} {
		if err := tr.SetBalance(b); err != nil {
			t.Fatal(err)
		}
		qs := workload.SearchInput(pairs, DefaultBucketSize, 11)
		vals, fnd, _, err := tr.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, tr, qs, vals, fnd)
	}
	if err := tr.SetBalance(Balance{D: 99, R: 0.5}); err == nil {
		t.Fatal("out-of-range balance accepted")
	}
}

func TestDiscoveryNearOptimal(t *testing.T) {
	// Algorithm 1's result must be within 15% of the best (D, R) found
	// by exhaustive sweep of the cost model.
	pairs := workload.Dataset[uint64](workload.Uniform, 400000, 10)
	tr, err := Build(pairs, Options{Variant: Implicit, Machine: platform.M2(), LoadBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	b := tr.Discover()
	cost := func(b Balance) vclock.Duration {
		g, c := tr.sample(b)
		return vclock.Max(g, c)
	}
	found := cost(b)
	best := found
	for d := 0; d <= tr.maxD(); d++ {
		for r := 0.0; r <= 1.0; r += 0.05 {
			if c := cost(Balance{D: d, R: r}); c < best {
				best = c
			}
		}
	}
	if float64(found) > 1.15*float64(best) {
		t.Fatalf("discovery cost %v more than 15%% above optimal %v (params %+v)", found, best, b)
	}
}

// TestCPUOnlyLookup: the host-only batch search answers correctly and
// never touches the device, so it stays valid on a replica-stale tree —
// the degraded state the serving fallback uses it for.
func TestCPUOnlyLookup(t *testing.T) {
	tr, pairs := build64(t, 60000, Options{Variant: Implicit})
	qs := workload.SearchInput(pairs, 30000, 13)
	tr.replicaStale.Store(true)
	defer tr.replicaStale.Store(false)
	kBefore := tr.Device().Counters().Kernels
	vals, fnd := make([]uint64, len(qs)), make([]bool, len(qs))
	stats := tr.LookupBatchCPUInto(qs, vals, fnd)
	if got := tr.Device().Counters().Kernels; got != kBefore {
		t.Fatalf("CPU-only batch launched %d kernels", got-kBefore)
	}
	checkBatch(t, tr, qs, vals, fnd)
	if stats.ThroughputQPS <= 0 {
		t.Fatal("no CPU-only throughput")
	}
}

// TestCPUFallbackAllocFree: the host-only batch search is the serving
// layer's degraded mode, so it must cost no more than the lookups it
// performs — no allocation on the implicit tree, and on the regular
// tree only the inner-node census its miss profile needs. Its modelled
// stats stay what they were before the profile was cached.
func TestCPUFallbackAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, c := range []struct {
		variant   Variant
		maxAllocs float64
		want      SearchStats
	}{
		{Implicit, 0, SearchStats{Queries: 16, Buckets: 1, BucketSize: 16,
			SimTime: 81, ThroughputQPS: 1.9753086419753087e+08, AvgLatency: 1296}},
		{Regular, 6, SearchStats{Queries: 16, Buckets: 1, BucketSize: 16,
			SimTime: 73.2413895924886, ThroughputQPS: 2.1845571321111184e+08, AvgLatency: 1171.8622334798176}},
	} {
		tr, pairs := build64(t, 1<<20, Options{Variant: c.variant})
		for _, n := range []int{16, 100} {
			qs := workload.SearchInput(pairs, n, 7)
			vals, fnd := make([]uint64, n), make([]bool, n)
			st := tr.LookupBatchCPUInto(qs, vals, fnd)
			checkBatch(t, tr, qs, vals, fnd)
			if n == 16 && st != c.want {
				t.Errorf("%v: stats = %+v, want %+v", c.variant, st, c.want)
			}
			allocs := testing.AllocsPerRun(100, func() { tr.LookupBatchCPUInto(qs, vals, fnd) })
			if allocs > c.maxAllocs {
				t.Errorf("%v, %d keys: %v allocations per batch, want at most %v", c.variant, n, allocs, c.maxAllocs)
			}
		}
	}
}

// TestLookupBatchIntoAllocFree pins the plain hybrid path's promise
// (LookupBatchInto's doc comment): a batch below the kernels' fan-out
// threshold allocates nothing, staging and timeline coming from the
// tree's scratch pool and the kernel groups' cursors from the stack. A
// fanned-out batch pays only for its worker goroutines — one kernel
// worker per SM, one leaf worker per thread — and their closures, at
// most two allocations each: 32 at GOMAXPROCS 2, 36 at 4 and 44 at 8,
// never a number that grows with the batch.
func TestLookupBatchIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, v := range []Variant{Implicit, Regular} {
		tr, pairs := build64(t, 1<<16, Options{Variant: v})
		workers := float64(tr.dev.Config().SMs + tr.opt.Threads)
		for _, c := range []struct {
			n         int
			maxAllocs float64
		}{{16, 0}, {1000, 0}, {5000, 2 * workers}} {
			qs := workload.SearchInput(pairs, c.n, 9)
			vals, fnd := make([]uint64, c.n), make([]bool, c.n)
			if _, err := tr.LookupBatchInto(qs, vals, fnd); err != nil {
				t.Fatal(err)
			}
			checkBatch(t, tr, qs, vals, fnd)
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := tr.LookupBatchInto(qs, vals, fnd); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.maxAllocs {
				t.Errorf("%v, %d keys: %v allocations per batch, want at most %v", v, c.n, allocs, c.maxAllocs)
			}
		}
	}
}

func TestImplicitRebuildUpdatesReplica(t *testing.T) {
	tr, _ := build64(t, 30000, Options{Variant: Implicit})
	pairs2 := workload.Dataset[uint64](workload.Uniform, 45000, 99)
	st, err := tr.Rebuild(pairs2)
	if err != nil {
		t.Fatal(err)
	}
	if st.LSegBuild <= 0 || st.ISegBuild <= 0 || st.SyncTime <= 0 {
		t.Fatalf("rebuild phases missing: %+v", st)
	}
	if err := tr.VerifyReplica(); err != nil {
		t.Fatal(err)
	}
	qs := workload.SearchInput(pairs2, DefaultBucketSize, 15)
	vals, fnd, _, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, tr, qs, vals, fnd)
}

func TestRegularUpdateMethodsKeepReplicaExact(t *testing.T) {
	for _, method := range []UpdateMethod{AsyncParallel, AsyncSingle, Synchronized, SynchronizedMT} {
		pairs := workload.Dataset[uint64](workload.Uniform, 60000, 21)
		tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		wl := workload.UpdateBatch(pairs, 8000, 0.3, 31)
		ops := make([]cpubtree.Op[uint64], len(wl))
		for i, op := range wl {
			ops[i] = cpubtree.Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value, Delete: op.Delete}
		}
		st, err := tr.Update(ops, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if st.Applied == 0 {
			t.Fatalf("%v: nothing applied", method)
		}
		if err := tr.VerifyReplica(); err != nil {
			t.Fatalf("%v: replica diverged: %v", method, err)
		}
		// Post-update hybrid lookups must see the new state.
		var hit, missed int
		qs := make([]uint64, 0, len(ops))
		for _, op := range ops {
			qs = append(qs, op.Key)
		}
		vals, fnd, _, err := tr.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			if op.Delete {
				if fnd[i] {
					missed++
				}
				continue
			}
			if !fnd[i] || vals[i] != op.Value {
				t.Fatalf("%v: inserted key %d not visible after update", method, op.Key)
			}
			hit++
		}
		if missed > 0 {
			t.Fatalf("%v: %d deleted keys still visible", method, missed)
		}
		if hit == 0 {
			t.Fatalf("%v: no inserts verified", method)
		}
		tr.Close()
	}
}

func TestUpdateCrossoverDirection(t *testing.T) {
	// Synchronized must beat asynchronous for small batches and lose for
	// large ones (Figure 14).
	pairs := workload.Dataset[uint64](workload.Uniform, 500000, 5)
	mkops := func(n int, seed uint64) []cpubtree.Op[uint64] {
		wl := workload.UpdateBatch(pairs, n, 0.0, seed)
		ops := make([]cpubtree.Op[uint64], len(wl))
		for i, op := range wl {
			ops[i] = cpubtree.Op[uint64]{Key: op.Pair.Key, Value: op.Pair.Value}
		}
		return ops
	}
	timeFor := func(method UpdateMethod, n int, seed uint64) vclock.Duration {
		tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		st, err := tr.Update(mkops(n, seed), method)
		if err != nil {
			t.Fatal(err)
		}
		return st.Total()
	}
	// Thresholds scale with the tree's I-segment size; at this tree size
	// (500K pairs, ~3 MiB I-segment) the crossover sits well between
	// these two batch sizes.
	small := 512
	large := 262144
	if s, a := timeFor(Synchronized, small, 1), timeFor(AsyncParallel, small, 1); s >= a {
		t.Fatalf("small batch: sync %v should beat async %v", s, a)
	}
	if s, a := timeFor(Synchronized, large, 2), timeFor(AsyncParallel, large, 2); s <= a {
		t.Fatalf("large batch: async %v should beat sync %v", a, s)
	}
}

func TestMixedBatchHybrid(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 50000, 3)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	r := workload.NewRNG(17)
	ops := make([]cpubtree.MixedOp[uint64], 6000)
	for i := range ops {
		if r.Intn(2) == 0 {
			ops[i] = cpubtree.MixedOp[uint64]{Kind: cpubtree.MixedSearch, Key: pairs[r.Intn(len(pairs))].Key}
		} else {
			k := r.Uint64()
			if k == keys.Max[uint64]() {
				k--
			}
			ops[i] = cpubtree.MixedOp[uint64]{Kind: cpubtree.MixedInsert, Key: k, Value: workload.ValueFor(k)}
		}
	}
	res, st, err := tr.MixedBatch(ops, Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if st.HostTime <= 0 {
		t.Fatal("no host time")
	}
	for i, op := range ops {
		if op.Kind == cpubtree.MixedSearch && (!res.Found[i] || res.Values[i] != workload.ValueFor(op.Key)) {
			t.Fatalf("mixed search %d failed", i)
		}
	}
	if err := tr.VerifyReplica(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceOOM(t *testing.T) {
	// Shrink the device memory so the I-segment cannot fit.
	m := platform.M1()
	m.GPU.MemBytes = 1 << 10
	pairs := workload.Dataset[uint64](workload.Uniform, 100000, 1)
	_, err := Build(pairs, Options{Variant: Implicit, Machine: m})
	if err == nil {
		t.Fatal("build succeeded with 1 KiB of device memory")
	}
	if !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("error %v does not wrap ErrOutOfMemory", err)
	}
}

func TestBucketBufferOOM(t *testing.T) {
	// Device fits the I-segment but not the staging buffers.
	m := platform.M1()
	pairs := workload.Dataset[uint64](workload.Uniform, 50000, 2)
	tr0, err := Build(pairs, Options{Variant: Implicit, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	iseg := tr0.BuildStats().ISegBytes
	tr0.Close()
	m.GPU.MemBytes = iseg + 1024 // room for the I-segment, not the buffers
	tr, err := Build(pairs, Options{Variant: Implicit, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	qs := workload.SearchInput(pairs, DefaultBucketSize, 1)
	if _, _, _, err := tr.LookupBatch(qs); err == nil {
		t.Fatal("LookupBatch succeeded without buffer memory")
	}
}

func TestHybridVsCPUConsistency(t *testing.T) {
	// The hybrid path and the pure-CPU path must agree bit-for-bit.
	tr, pairs := build64(t, 70000, Options{Variant: Regular})
	qs := workload.SearchInput(pairs, 2*DefaultBucketSize, 19)
	hv, hf, _, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	cv, cf := make([]uint64, len(qs)), make([]bool, len(qs))
	tr.LookupBatchCPUInto(qs, cv, cf)
	for i := range qs {
		if hv[i] != cv[i] || hf[i] != cf[i] {
			t.Fatalf("hybrid and CPU paths diverge at %d", i)
		}
	}
}

func TestRangeQueryHybrid(t *testing.T) {
	tr, pairs := build64(t, 30000, Options{Variant: Regular})
	out := tr.RangeQuery(pairs[100].Key, 20, nil)
	if len(out) != 20 {
		t.Fatalf("range returned %d", len(out))
	}
	for j, p := range out {
		if p != pairs[100+j] {
			t.Fatalf("range[%d] = %+v, want %+v", j, p, pairs[100+j])
		}
	}
}

func TestBuildStatsAndSpace(t *testing.T) {
	tr, _ := build64(t, 100000, Options{Variant: Implicit})
	bs := tr.BuildStats()
	if bs.ISegBytes <= 0 || bs.LSegBytes <= 0 {
		t.Fatalf("missing segment sizes: %+v", bs)
	}
	if bs.Total() <= 0 {
		t.Fatal("zero build time")
	}
	// I-segment transfer must be a small fraction of the rebuild (the
	// paper reports 3-7%).
	frac := float64(bs.ISegXfer) / float64(bs.Total())
	if frac <= 0 || frac > 0.25 {
		t.Fatalf("I-segment transfer fraction %.3f out of plausible range", frac)
	}
}

func TestVariantErrors(t *testing.T) {
	trImpl, _ := build64(t, 1000, Options{Variant: Implicit})
	if _, err := trImpl.Update(nil, AsyncParallel); err == nil {
		t.Fatal("Update on implicit variant accepted")
	}
	trReg, pairs := build64(t, 1000, Options{Variant: Regular})
	if _, err := trReg.Rebuild(pairs); err == nil {
		t.Fatal("Rebuild on regular variant accepted")
	}
}

func TestEmptyBatch(t *testing.T) {
	tr, _ := build64(t, 1000, Options{Variant: Implicit})
	vals, fnd, stats, err := tr.LookupBatch(nil)
	if err != nil || len(vals) != 0 || len(fnd) != 0 || stats.Queries != 0 {
		t.Fatalf("empty batch mishandled: %v %v %v %v", vals, fnd, stats, err)
	}
}

func TestSharedDevice(t *testing.T) {
	// Several indexes on one card share (and exhaust) its memory.
	dev := gpusim.New(platform.M1().GPU)
	pairs := workload.Dataset[uint64](workload.Uniform, 50000, 1)
	t1, err := Build(pairs, Options{Variant: Implicit, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := Build(pairs, Options{Variant: Regular, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	if t1.Device() != dev || t2.Device() != dev {
		t.Fatal("trees not sharing the device")
	}
	used := dev.MemUsed()
	if used < t1.BuildStats().ISegBytes+t2.BuildStats().ISegBytes {
		t.Fatalf("device usage %d below combined I-segments", used)
	}
	// Both serve lookups concurrently against the same card.
	qs := workload.SearchInput(pairs, DefaultBucketSize, 2)
	for _, tr := range []*Tree[uint64]{t1, t2} {
		vals, fnd, _, err := tr.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, tr, qs, vals, fnd)
	}
	// A card sized to barely fit one I-segment rejects the second tree.
	small := platform.M1()
	small.GPU.MemBytes = t1.BuildStats().ISegBytes + 4096
	sdev := gpusim.New(small.GPU)
	if _, err := Build(pairs, Options{Variant: Implicit, Machine: small, Device: sdev}); err != nil {
		t.Fatalf("first tree should fit: %v", err)
	}
	if _, err := Build(pairs, Options{Variant: Implicit, Machine: small, Device: sdev}); err == nil {
		t.Fatal("second tree fit impossibly")
	}
}

func TestOptionsValidation(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 100, 1)
	bad := []Options{
		{Variant: Variant(7)},
		{Strategy: Strategy(9)},
		{BucketSize: 8},
		{LeafFill: 1.5},
		{LeafFill: -0.1},
	}
	for i, opt := range bad {
		if _, err := Build(pairs, opt); err == nil {
			t.Fatalf("bad options %d accepted: %+v", i, opt)
		}
	}
}

func TestConcurrentLookupBatches(t *testing.T) {
	// Several goroutines may run LookupBatch on one tree concurrently:
	// kernels read the immutable replica, and device allocations are
	// synchronised. (Tracing is the documented exception.)
	tr, pairs := build64(t, 60000, Options{Variant: Implicit})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := workload.SearchInput(pairs, 20000, uint64(g))
			vals, fnd, _, err := tr.LookupBatch(qs)
			if err != nil {
				errs <- err
				return
			}
			for i, q := range qs {
				if !fnd[i] || vals[i] != workload.ValueFor(q) {
					errs <- fmt.Errorf("goroutine %d: query %d wrong", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
