// Wall-clock benchmarks for the serving layer. Unlike serve_bench_test.go,
// which compares serving disciplines on the paper's virtual clock, this
// suite measures real throughput and latency on the host: pipelined
// clients drive the coalescer while an update pump applies batched
// writes, in the two configurations serve.RunWall supports — the
// single-tree snapshot server and the key-space sharded server (T
// independent trees, each with its own snapshot pointer and update
// pump).
//
// Two effects are measured. Batching amortisation shows up in MQPS at
// any core count. Reader-stall elimination shows up in the during-write
// latency distribution: a server whose writers exclude readers blocks
// every lookup for the remainder of the write span (a rebuild blocks
// them for up to its full duration), while a snapshot server keeps
// serving the old version, so its during-write p50 stays near the
// at-rest p50. The sharded update-throughput gate only scales with
// cores, so it runs on ≥4-core hosts; the stall gate runs everywhere.
package hbtree_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hbtree"
	"hbtree/internal/serve"
)

// wallPairs is sized so a rebuild is long enough (~20ms) for lookups to
// overlap it, making the during-write distribution a meaningful sample.
const wallPairs = 1 << 20

// TestWallSnapshotReadsDontStallOnRebuilds is the reader-stall
// acceptance criterion: while the tree is being rebuilt, the server must
// keep serving lookups near their at-rest latency. A server that made
// reads wait for the writer would admit almost none inside a rebuild
// and hold those few for its whole length (tens of milliseconds against
// a sub-millisecond median), so both halves are absolute: enough
// during-rebuild samples, and their median within 3× of the run's
// overall median. It holds at any core count because it compares
// latency distributions of one run, not throughput.
func TestWallSnapshotReadsDontStallOnRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	pairs := hbtree.GeneratePairs[uint64](wallPairs, 42)
	res, err := serve.RunWall(pairs, hbtree.Options{}, serve.WallOptions{
		Clients:      8,
		Duration:     600 * time.Millisecond,
		RebuildEvery: 100 * time.Millisecond,
		Depth:        64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.WriteTime < 20*time.Millisecond {
		t.Skipf("rebuilds too short to measure (%v of writes)", res.WriteTime)
	}
	if res.DuringWriteSamples < 100 {
		t.Errorf("only %d lookups were served during rebuilds, want ≥ 100", res.DuringWriteSamples)
	}
	if res.DuringWriteP50 > 3*res.P50 {
		t.Errorf("during-rebuild p50 %v above 3× the at-rest p50 %v", res.DuringWriteP50, res.P50)
	}
}

// BenchmarkWallServe reports wall-clock serving metrics across client
// counts and update mixes for both configurations. Each benchmark
// invocation is a single RunWall whose duration scales with b.N (25ms
// per iteration), so the tree is built once per measurement.
func BenchmarkWallServe(b *testing.B) {
	pairs := hbtree.GeneratePairs[uint64](1<<18, 42)
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"fast", 0}, {"sharded", 4}} {
		for _, clients := range []int{1, 8} {
			for _, frac := range []float64{0, 0.1} {
				name := fmt.Sprintf("%s/clients=%d/updates=%d%%", cfg.name, clients, int(frac*100))
				b.Run(name, func(b *testing.B) {
					treeOpt := hbtree.Options{}
					if frac > 0 {
						treeOpt.Variant = hbtree.Regular
					}
					res, err := serve.RunWall(pairs, treeOpt, serve.WallOptions{
						Clients:    clients,
						Duration:   time.Duration(b.N) * 25 * time.Millisecond,
						UpdateFrac: frac,
						Shards:     cfg.shards,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.MQPS, "MQPS")
					b.ReportMetric(float64(res.P50.Microseconds()), "p50-µs")
					b.ReportMetric(float64(res.P99.Microseconds()), "p99-µs")
					if res.DuringWriteSamples > 0 {
						b.ReportMetric(float64(res.DuringWriteP50.Microseconds()), "write-p50-µs")
					}
				})
			}
		}
	}
}

// TestWallShardedUpdateThroughputScales is the sharding acceptance
// criterion on multicore hosts: under an update-heavy mix, the T=4
// key-space sharded server must apply ≥2× the update operations per
// second of the single-tree snapshot path — each sharded write clones
// 1/4 of the data and the four pumps run concurrently, where the
// single-tree path clones everything behind one writer mutex — while
// its during-write read p50 stays no worse. The parallelism does not
// exist below 4 CPUs, so the test skips there (the sharded correctness oracles still run everywhere).
func TestWallShardedUpdateThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs ≥4 CPUs to measure parallel scaling, have %d", runtime.GOMAXPROCS(0))
	}
	pairs := hbtree.GeneratePairs[uint64](1<<18, 42)
	opt := serve.WallOptions{
		Clients:     8,
		Duration:    time.Second,
		UpdateFrac:  0.5,
		UpdateBatch: 8192,
	}
	fast, err := serve.RunWall(pairs, hbtree.Options{Variant: hbtree.Regular}, opt)
	if err != nil {
		t.Fatal(err)
	}
	shardedOpt := opt
	shardedOpt.Shards = 4
	sharded, err := serve.RunWall(pairs, hbtree.Options{Variant: hbtree.Regular}, shardedOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fast:    %s", fast)
	t.Logf("sharded: %s", sharded)

	fastUps := float64(fast.Updates) / fast.Elapsed.Seconds()
	shardedUps := float64(sharded.Updates) / sharded.Elapsed.Seconds()
	if shardedUps < 2*fastUps {
		t.Errorf("sharded update throughput %.0f ops/s < 2× single-tree snapshot %.0f ops/s",
			shardedUps, fastUps)
	}
	// Reads issued while a write was in flight must not get slower than
	// the single-tree snapshot path (small margin for run-to-run noise).
	if fast.DuringWriteSamples >= 100 && sharded.DuringWriteSamples >= 100 &&
		sharded.DuringWriteP50 > fast.DuringWriteP50+fast.DuringWriteP50/2 {
		t.Errorf("sharded during-write p50 %v worse than single-tree snapshot %v",
			sharded.DuringWriteP50, fast.DuringWriteP50)
	}
}

// TestWallSkewedRebalanceSmoke drives the full serving pipeline — the
// pipelined clients, the sharded coalescer, the per-shard update pumps
// AND the background rebalancer — with a 90%-skewed update stream, and
// checks the run stays correct while the shard layout is retiled under
// live wall-clock load: the driver finishes without error, the skew
// triggers at least one online split, and the final layout/epoch
// counters are coherent. Throughput is reported, not gated.
func TestWallSkewedRebalanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	pairs := hbtree.GeneratePairs[uint64](1<<16, 42)
	res, err := serve.RunWall(pairs, hbtree.Options{Variant: hbtree.Regular}, serve.WallOptions{
		Clients:     4,
		Duration:    700 * time.Millisecond,
		UpdateFrac:  0.5,
		UpdateSkew:  0.9,
		UpdateBatch: 512,
		Shards:      4,
		Rebalance: &serve.RebalanceOptions{
			MinOps:       256,
			HotFraction:  0.5,
			ColdFraction: -1, // splits only: keep the outcome monotone
			Interval:     time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("skewed+rebalance: %s", res)
	if res.Updates < 2048 {
		t.Skipf("host too slow to accumulate a detector window (%d updates)", res.Updates)
	}
	if res.Splits < 1 {
		t.Errorf("90%%-skewed stream triggered no online split: %+v", res)
	}
	if res.Merges != 0 || res.Rebalances != res.Splits {
		t.Errorf("split-only run has incoherent counters: %+v", res)
	}
	if res.Shards != 4+int(res.Splits) {
		t.Errorf("final shard count %d does not reflect %d splits of 4", res.Shards, res.Splits)
	}
	if res.Epoch < uint64(res.Rebalances) {
		t.Errorf("epoch %d below rebalance count %d", res.Epoch, res.Rebalances)
	}
}
