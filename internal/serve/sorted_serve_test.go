package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hbtree/internal/core"
)

// Tests for the sorted shared-descent serving path: coalescer duplicate
// folding, the sorted flush oracle through the sharded backend, and the
// allocation gates at a large coalesce window.

// TestCoalescerFoldsDuplicateKeys: identical keys coalesced into one
// window occupy a single backend slot and the one result fans out to
// every waiter — including the found=false of a missing key.
func TestCoalescerFoldsDuplicateKeys(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	const maxBatch = 8
	c := NewCoalescer(srv, Options{MaxBatch: maxBatch, Window: time.Hour, Shards: 1})
	defer c.Close()

	missing := uint64(3)
	if _, ok := srv.Lookup(missing); ok {
		t.Skip("improbable: probe key present in dataset")
	}
	// 8 submissions, 4 distinct keys: p0 three times, p1 twice, missing
	// twice, p2 once. The full batch flushes immediately.
	keys := []uint64{pairs[0].Key, missing, pairs[1].Key, pairs[0].Key,
		missing, pairs[2].Key, pairs[1].Key, pairs[0].Key}
	want := map[uint64]uint64{pairs[0].Key: pairs[0].Value, pairs[1].Key: pairs[1].Value, pairs[2].Key: pairs[2].Value}

	chans := make([]<-chan Result[uint64], maxBatch)
	for i, k := range keys {
		chans[i] = c.Submit(k)
	}
	deadline := time.After(10 * time.Second)
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			wv, present := want[keys[i]]
			if res.Found != present || (present && res.Value != wv) {
				t.Fatalf("waiter %d (key %d) = (%d, %v), want (%d, %v)",
					i, keys[i], res.Value, res.Found, wv, present)
			}
		case <-deadline:
			t.Fatalf("waiter %d still pending", i)
		}
	}
	if got := c.Folded(); got != maxBatch-4 {
		t.Fatalf("Folded() = %d, want %d (8 submissions, 4 distinct keys)", got, maxBatch-4)
	}
	// The backend saw the deduplicated batch: the server's batched-query
	// counter counts unique slots, the coalescer's counts submissions.
	m := srv.Metrics()
	if m.BatchedQueries != 4 || c.Queries() != maxBatch {
		t.Fatalf("backend saw %d queries / coalescer %d, want 4 / %d",
			m.BatchedQueries, c.Queries(), maxBatch)
	}
	// And it served it through the shared descent: the four keys share
	// at least the root probe.
	if m.NodeProbes <= 0 || m.ProbesSaved <= 0 {
		t.Fatalf("flush recorded no probe sharing: probes=%d saved=%d", m.NodeProbes, m.ProbesSaved)
	}
}

// TestSortedShardedBatchOracle is the -race oracle for the sorted flush
// through the sharded backend: concurrent goroutines push shuffled,
// duplicate- and miss-laden batches through both the coalescer
// backend's LookupBatchSortedInto and the co-sorting LookupBatch wrapper
// and verify every slot against the dataset. Both must agree with the
// oracle in the original (pre-sort) slot order regardless of input
// order.
func TestSortedShardedBatchOracle(t *testing.T) {
	s, pairs := newShardedServer(t, core.Regular, 1<<12, 4)
	oracle := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}

	workers, iters := 6, 30
	if testing.Short() {
		workers, iters = 3, 10
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			const n = 192
			qs := make([]uint64, n)
			values := make([]uint64, n)
			found := make([]bool, n)
			for it := 0; it < iters; it++ {
				for i := range qs {
					switch rng.Intn(4) {
					case 0: // miss (odd keys are absent from the even dataset space)
						qs[i] = rng.Uint64() | 1
					case 1: // duplicate of an earlier slot
						if i > 0 {
							qs[i] = qs[rng.Intn(i)]
							break
						}
						fallthrough
					default:
						qs[i] = pairs[rng.Intn(len(pairs))].Key
					}
				}
				var stats core.SearchStats
				var err error
				if it%2 == 0 {
					stats, err = s.LookupBatchSortedInto(qs, values, found)
				} else {
					values, found, stats, err = s.LookupBatch(qs)
				}
				if err == nil && !stats.Sorted {
					t.Errorf("worker %d iter %d: sorted stats not flagged", w, it)
					return
				}
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, it, err)
					return
				}
				for i, k := range qs {
					wv, present := oracle[k]
					if found[i] != present || (present && values[i] != wv) {
						t.Errorf("worker %d iter %d slot %d: key %d = (%d, %v), oracle (%d, %v)",
							w, it, i, k, values[i], found[i], wv, present)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	m := s.Metrics()
	if m.NodeProbes <= 0 || m.ProbesSaved <= 0 {
		t.Fatalf("sorted sharded runs recorded no probe accounting: %+v", m)
	}
}

// TestShardedSortedStatsKeepLevelInvariant: a sharded batch's stats sum
// every shard run's per-level probes and leaf lines, so the aggregate
// keeps sum(LevelProbes) == NodeProbes — for an unsorted,
// duplicate-laden batch that the run walk cuts into many runs.
func TestShardedSortedStatsKeepLevelInvariant(t *testing.T) {
	s, pairs := newShardedServer(t, core.Regular, 1<<12, 4)
	rng := rand.New(rand.NewSource(3))
	qs := make([]uint64, 300)
	for i := range qs {
		if i > 0 && rng.Intn(4) == 0 {
			qs[i] = qs[rng.Intn(i)]
		} else {
			qs[i] = pairs[rng.Intn(len(pairs))].Key
		}
	}
	values, found := make([]uint64, len(qs)), make([]bool, len(qs))
	stats, err := s.LookupBatchSortedInto(qs, values, found)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range stats.LevelProbes {
		sum += c
	}
	if stats.NodeProbes <= 0 || sum != stats.NodeProbes {
		t.Fatalf("sum(LevelProbes) = %d, NodeProbes = %d", sum, stats.NodeProbes)
	}
	if stats.LeafLines <= 0 {
		t.Fatalf("LeafLines = %d, want > 0", stats.LeafLines)
	}
}

// TestSortedBatchWindow512AllocFree pins zero allocations per call on
// the sorted shared-descent batch at a large coalesce window: 512
// unsorted, duplicate-laden queries span 8 buckets of 64, engaging the
// per-bucket sort scratch, the dedup compaction and the double-buffered
// device worker — all of which must come from the pooled scratch after
// warm-up.
func TestSortedBatchWindow512AllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, variant := range []core.Variant{core.Implicit, core.Regular} {
		t.Run(variant.String(), func(t *testing.T) {
			srv, pairs := newTestServer(t, variant, 1<<10)
			const n = 512
			queries := make([]uint64, n)
			values := make([]uint64, n)
			found := make([]bool, n)
			rng := rand.New(rand.NewSource(7))
			for i := range queries {
				if i > 0 && rng.Intn(8) == 0 {
					queries[i] = queries[i-1] // exact duplicate
				} else {
					queries[i] = pairs[rng.Intn(len(pairs))].Key
				}
			}
			// Warm the scratch pool (grow-once: the sorted stage sizes
			// itself to the bucket on first acquisition).
			if _, err := srv.LookupBatchSortedInto(queries, values, found); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := srv.LookupBatchSortedInto(queries, values, found); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("LookupBatchSortedInto allocates %.1f times per call at window 512, want 0", allocs)
			}
		})
	}
}

// TestCoalescedSortedWindow512AllocFree pins zero allocations per batch
// on the full coalesced sorted route at MaxBatch 512: pooled reply
// cells, the pending window's sort/perm/uref scratch, the dedup fold
// and the fan-out must all reuse pooled memory.
func TestCoalescedSortedWindow512AllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	const maxBatch = 512
	co := NewCoalescer(srv, Options{MaxBatch: maxBatch, Window: time.Hour, Shards: 1})
	defer co.Close()

	keys := make([]uint64, maxBatch)
	rng := rand.New(rand.NewSource(11))
	for i := range keys {
		if i > 0 && rng.Intn(8) == 0 {
			keys[i] = keys[i-1]
		} else {
			keys[i] = pairs[rng.Intn(len(pairs))].Key
		}
	}
	// One group fills the window exactly, so the call covers the whole
	// pipeline: queue, inline full flush, fan-out to the reply cell.
	out := make([]Result[uint64], maxBatch)
	run := func() {
		co.LookupGroup(context.Background(), keys, out)
		for i, res := range out {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !res.Found {
				t.Fatalf("waiter %d missed", i)
			}
		}
	}
	// Warm the reply, batch and scratch pools.
	run()
	run()
	allocs := testing.AllocsPerRun(20, run)
	// Budget: zero per batch; testing.AllocsPerRun rounds per run, and a
	// 512-slot batch gives plenty of headroom to detect any per-key leak.
	if allocs != 0 {
		t.Fatalf("coalesced sorted batch allocates %.1f times per 512-key window, want 0", allocs)
	}
	if co.Folded() == 0 {
		t.Fatal("duplicate-laden windows folded nothing")
	}
}
