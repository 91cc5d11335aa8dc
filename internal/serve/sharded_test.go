package serve

import (
	"strings"
	"testing"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// newShardedServer builds a small sharded server for tests.
func newShardedServer(t testing.TB, variant core.Variant, n, shards int) (*ShardedServer[uint64], []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
	s, err := BuildSharded(pairs, core.Options{Variant: variant, BucketSize: 64}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, pairs
}

// route returns the shard owning key k under the current split-key
// table.
func (s *ShardedServer[K]) route(k K) int {
	m := s.reg.Meta()
	return m.route(k)
}

// TestShardedRouting: every key routes to the shard whose range holds
// it, and the shard layout covers all pairs without overlap.
func TestShardedRouting(t *testing.T) {
	s, pairs := newShardedServer(t, core.Implicit, 1<<12, 4)
	if s.Shards() != 4 || len(s.Bounds()) != 3 {
		t.Fatalf("layout: %d shards, %d bounds", s.Shards(), len(s.Bounds()))
	}
	if s.NumPairs() != len(pairs) {
		t.Fatalf("NumPairs = %d, want %d", s.NumPairs(), len(pairs))
	}
	bounds := s.Bounds()
	for _, p := range pairs {
		i := s.route(p.Key)
		if i > 0 && p.Key < bounds[i-1] {
			t.Fatalf("key %d routed to shard %d below its bound %d", p.Key, i, bounds[i-1])
		}
		if i < len(bounds) && p.Key >= bounds[i] {
			t.Fatalf("key %d routed to shard %d at/above next bound %d", p.Key, i, bounds[i])
		}
	}
	// Boundary keys themselves belong to the upper shard.
	for i, b := range bounds {
		if got := s.route(b); got != i+1 {
			t.Fatalf("route(bound %d) = %d, want %d", b, got, i+1)
		}
		if got := s.route(b - 1); got != i {
			t.Fatalf("route(bound-1) = %d, want %d", got, i)
		}
	}
}

// TestShardedReadPaths: point, batch, range and scan reads through the
// sharded server agree with the source data, including range/scan
// stitches that cross shard boundaries.
func TestShardedReadPaths(t *testing.T) {
	s, pairs := newShardedServer(t, core.Implicit, 1<<12, 4)

	for _, i := range []int{0, 512, 1024, 2048, 4095} {
		if v, ok := s.Lookup(pairs[i].Key); !ok || v != pairs[i].Value {
			t.Fatalf("Lookup(pairs[%d]) = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := s.Lookup(pairs[0].Key + 1); ok {
		t.Fatal("lookup of absent key reported found")
	}

	// Batch lookup spanning all four shards, results in query order.
	queries := make([]uint64, 0, 256)
	for i := 0; i < 256; i++ {
		queries = append(queries, pairs[(i*53)%len(pairs)].Key)
	}
	values, found, stats, err := s.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if !found[i] || values[i] != workload.ValueFor(q) {
			t.Fatalf("batch[%d] = (%d, %v)", i, values[i], found[i])
		}
	}
	if stats.Queries != len(queries) {
		t.Fatalf("stats.Queries = %d, want %d", stats.Queries, len(queries))
	}
	if stats.SimTime <= 0 || stats.ThroughputQPS <= 0 {
		t.Fatalf("stats not aggregated: %+v", stats)
	}

	// Range and scan stitches starting in each shard, each crossing at
	// least one boundary (count spans a quarter of the key space plus
	// slack). pairs is sorted, so the expected window is a plain slice.
	for _, start := range []int{0, 1000, 2000, 3000} {
		count := 1200
		want := pairs[start:min(start+count, len(pairs))]
		rq := s.RangeQuery(pairs[start].Key, count)
		if len(rq) != len(want) {
			t.Fatalf("RangeQuery(start=%d) len = %d, want %d", start, len(rq), len(want))
		}
		for i := range want {
			if rq[i] != want[i] {
				t.Fatalf("RangeQuery(start=%d)[%d] = %v, want %v", start, i, rq[i], want[i])
			}
		}
		sc := s.Scan(pairs[start].Key, count)
		if len(sc) != len(rq) {
			t.Fatalf("Scan len %d != RangeQuery len %d", len(sc), len(rq))
		}
		for i := range rq {
			if sc[i] != rq[i] {
				t.Fatalf("Scan[%d] = %v disagrees with RangeQuery %v", i, sc[i], rq[i])
			}
		}
	}
	// A range past the end of the key space is just truncated.
	if rq := s.RangeQuery(pairs[len(pairs)-2].Key, 100); len(rq) != 2 {
		t.Fatalf("tail RangeQuery len = %d, want 2", len(rq))
	}
}

// TestShardedLookupBatchOneRunPerShard: LookupBatch on unsorted keys
// spanning every shard co-sorts them first, so each touched shard serves
// exactly one run (one batch) and the results still come back in caller
// order.
func TestShardedLookupBatchOneRunPerShard(t *testing.T) {
	s, pairs := newShardedServer(t, core.Implicit, 1<<12, 4)
	queries := make([]uint64, 256)
	touched := map[int]bool{}
	for i := range queries {
		queries[i] = pairs[(i*53)%len(pairs)].Key
		touched[s.route(queries[i])] = true
	}
	before := s.Metrics().Batches
	values, found, stats, err := s.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if !found[i] || values[i] != workload.ValueFor(q) {
			t.Fatalf("batch[%d] (key %d) = (%d, %v)", i, q, values[i], found[i])
		}
	}
	if got := s.Metrics().Batches - before; got != int64(len(touched)) {
		t.Fatalf("batch served as %d shard runs, want one per touched shard (%d)", got, len(touched))
	}
	if !stats.Sorted || stats.Queries != len(queries) {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestShardedUpdate: ops split across shards apply concurrently, stay
// visible, and merge their stats (counts summed, times as makespan).
func TestShardedUpdate(t *testing.T) { forShards(t, []int{1, 4}, testShardedUpdate) }

func testShardedUpdate(t *testing.T, shards int) {
	s, pairs := newShardedServer(t, core.Regular, 1<<12, shards)

	ops := make([]cpubtree.Op[uint64], 0, 400)
	for i := 0; i < 400; i++ {
		p := pairs[(i*41)%len(pairs)]
		ops = append(ops, cpubtree.Op[uint64]{Key: p.Key, Value: p.Value + 7})
	}
	st, err := s.Update(ops, core.AsyncParallel)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != len(ops) {
		t.Fatalf("stats.Ops = %d, want %d", st.Ops, len(ops))
	}
	if st.HostTime <= 0 {
		t.Fatalf("stats.HostTime = %v, want > 0", st.HostTime)
	}
	for i := 0; i < 400; i++ {
		p := pairs[(i*41)%len(pairs)]
		if v, ok := s.Lookup(p.Key); !ok || v != p.Value+7 {
			t.Fatalf("after update Lookup(%d) = (%d, %v)", p.Key, v, ok)
		}
	}
	// Each touched shard published a new version.
	if swaps := s.Swaps(); swaps != int64(shards) {
		t.Fatalf("swaps = %d, want %d (one per shard)", swaps, shards)
	}
	// Same-key ops keep submission order: last write wins. Routing keeps
	// a shard's ops in order; applying them in order takes a sequential
	// method — AsyncParallel's workers draw ops off a shared cursor
	// (cpubtree.ApplyBatchParallel, the paper's Section 5.6 method), so
	// two ops on one key in one batch may land either way round.
	k := pairs[99].Key
	if _, err := s.Update([]cpubtree.Op[uint64]{
		{Key: k, Value: 1}, {Key: k, Value: 2}, {Key: k, Value: 3},
	}, core.Synchronized); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Lookup(k); !ok || v != 3 {
		t.Fatalf("last-write-wins violated: (%d, %v)", v, ok)
	}
	// An update touching one shard swaps only that shard.
	before := s.ShardMetrics()
	if _, err := s.Update([]cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 5}}, core.AsyncParallel); err != nil {
		t.Fatal(err)
	}
	after := s.ShardMetrics()
	touched := s.route(pairs[0].Key)
	for i := range after {
		want := before[i].Swaps
		if i == touched {
			want++
		}
		if after[i].Swaps != want {
			t.Fatalf("shard %d swaps = %d, want %d", i, after[i].Swaps, want)
		}
	}
	// Every member's GPU replica stayed consistent through the updates.
	for i, sub := range s.members() {
		if err := sub.Tree().VerifyReplica(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

// TestShardedRebuild: a full rebuild partitions the replacement by the
// fixed bounds and runs per shard; a replacement that would empty a
// shard is rejected rather than crashing the shard's builder.
func TestShardedRebuild(t *testing.T) {
	s, pairs := newShardedServer(t, core.Implicit, 1<<12, 4)

	repl := make([]keys.Pair[uint64], len(pairs))
	for i, p := range pairs {
		repl[i] = keys.Pair[uint64]{Key: p.Key, Value: p.Value + 1000}
	}
	if _, err := s.Rebuild(repl); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2000, 4095} {
		if v, ok := s.Lookup(repl[i].Key); !ok || v != repl[i].Value {
			t.Fatalf("after rebuild Lookup = (%d, %v)", v, ok)
		}
	}
	if swaps := s.Swaps(); swaps != 4 {
		t.Fatalf("swaps after rebuild = %d, want 4", swaps)
	}

	// Dropping every key below the last bound would empty three shards.
	lastBound := s.Bounds()[len(s.Bounds())-1]
	var tail []keys.Pair[uint64]
	for _, p := range repl {
		if p.Key >= lastBound {
			tail = append(tail, p)
		}
	}
	if _, err := s.Rebuild(tail); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("rebuild emptying shards: err = %v, want empty-shard error", err)
	}
	// The failed rebuild left the published versions untouched.
	if v, ok := s.Lookup(repl[0].Key); !ok || v != repl[0].Value {
		t.Fatalf("state disturbed by rejected rebuild: (%d, %v)", v, ok)
	}
}

// TestShardedAggregates: Stats, Metrics and Describe merge per-shard
// state coherently.
func TestShardedAggregates(t *testing.T) {
	s, pairs := newShardedServer(t, core.Implicit, 1<<12, 4)

	s.Lookup(pairs[0].Key)
	s.Lookup(pairs[4000].Key)
	st := s.Stats()
	if st.NumPairs != len(pairs) {
		t.Fatalf("Stats.NumPairs = %d", st.NumPairs)
	}
	if st.InnerBytes == 0 || st.LeafBytes == 0 || st.Height == 0 {
		t.Fatalf("Stats not aggregated: %+v", st)
	}
	m := s.Metrics()
	if m.Lookups != 2 {
		t.Fatalf("Metrics.Lookups = %d, want 2", m.Lookups)
	}
	per := s.ShardMetrics()
	var sum int64
	for _, pm := range per {
		sum += pm.Lookups
	}
	if sum != 2 {
		t.Fatalf("per-shard lookups sum = %d, want 2", sum)
	}
	if len(s.ShardStats()) != 4 {
		t.Fatalf("ShardStats len = %d", len(s.ShardStats()))
	}
	if d := s.Describe(); !strings.Contains(d, "shard 3") {
		t.Fatalf("Describe missing shard sections: %q", d[:80])
	}
	s.ResetMetrics()
	if m := s.Metrics(); m.Lookups != 0 {
		t.Fatalf("Lookups after reset = %d", m.Lookups)
	}
	if s.Options().BucketSize != 64 {
		t.Fatalf("Options.BucketSize = %d", s.Options().BucketSize)
	}
	if s.PointLookupCost() <= 0 {
		t.Fatal("PointLookupCost not positive")
	}
	if s.DeviceCounters().BytesH2D == 0 {
		t.Fatal("no device traffic recorded")
	}
}

// TestShardedClose: Close drains the pumps and is idempotent; writes
// after Close fail with ErrClosed instead of hanging or panicking.
func TestShardedClose(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<10, 42)
	s, err := BuildSharded(pairs, core.Options{Variant: core.Regular, BucketSize: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, err := s.Update([]cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 9}}, core.AsyncParallel); err != ErrClosed {
		t.Fatalf("Update after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.Rebuild(pairs); err != ErrClosed {
		t.Fatalf("Rebuild after Close: err = %v, want ErrClosed", err)
	}
}

// TestShardedBuildErrors: degenerate configurations fail cleanly.
func TestShardedBuildErrors(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 2, 42)
	if _, err := BuildSharded(pairs, core.Options{BucketSize: 64}, 4); err == nil {
		t.Fatal("building 4 shards from 2 pairs succeeded")
	}
}

// TestNewShardedServerFromTree: serving an existing tree preserves its
// contents and shares its simulated device; the server owns the tree —
// one shard adopts it as built, more reshard it and release it, and so
// does a failed reshard.
func TestNewShardedServerFromTree(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<11, 42)
	for _, shards := range []int{1, 4} {
		tree, err := core.Build(pairs, core.Options{BucketSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		dev := tree.Device()
		s, err := NewShardedServer(tree, shards)
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards() != shards || s.NumPairs() != len(pairs) || s.Options().Device != dev {
			t.Fatalf("%d shards: serving %d shards, %d pairs", shards, s.Shards(), s.NumPairs())
		}
		if adopted := s.members()[0].Tree() == tree; adopted != (shards == 1) {
			t.Fatalf("%d shards: built tree adopted = %v", shards, adopted)
		}
		for _, i := range []int{0, 1024, 2047} {
			if v, ok := s.Lookup(pairs[i].Key); !ok || v != pairs[i].Value {
				t.Fatalf("%d shards: Lookup(pairs[%d]) = (%d, %v)", shards, i, v, ok)
			}
		}
		s.Close()
		if n := dev.MemUsed(); n != 0 {
			t.Fatalf("%d shards: %d device bytes still allocated after Close", shards, n)
		}
	}
	tree, err := core.Build(pairs[:2], core.Options{BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedServer(tree, 4); err == nil {
		t.Fatal("resharding 2 pairs across 4 shards succeeded")
	}
	if n := tree.Device().MemUsed(); n != 0 {
		t.Fatalf("failed reshard left %d device bytes allocated", n)
	}
}

// TestCoalescerRoutesRunsAcrossShards: one coalescer over a sharded
// backend forms batches without regard to shard bounds; each flush
// routes its sorted runs to the owning shards, so lookups spread over
// the key space return correct results and every shard serves some.
func TestCoalescerRoutesRunsAcrossShards(t *testing.T) {
	s, pairs := newShardedServer(t, core.Implicit, 1<<12, 4)
	co := s.Coalesce(Options{MaxBatch: 16})
	defer co.Close()

	for i := 0; i < 512; i++ {
		p := pairs[(i*29)%len(pairs)]
		v, found, err := co.Lookup(p.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != p.Value {
			t.Fatalf("coalesced Lookup(%d) = (%d, %v)", p.Key, v, found)
		}
	}
	if co.Batches() == 0 || co.Queries() != 512 {
		t.Fatalf("coalescer counters: %d batches, %d queries", co.Batches(), co.Queries())
	}
	for i, m := range s.ShardMetrics() {
		if m.BatchedQueries == 0 {
			t.Fatalf("shard %d served none of the coalesced lookups", i)
		}
	}
	res := <-co.Submit(pairs[1].Key)
	if res.Err != nil || !res.Found || res.Value != pairs[1].Value {
		t.Fatalf("Submit result = %+v", res)
	}
}
