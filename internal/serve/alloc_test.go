package serve

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
)

// Allocation regression tests for the steady-state serving pipeline.
// The bucket size is kept small (64, the minimum) so the simulated
// kernel fan-out and the CPU leaf stage run inline — goroutine spawning
// is a per-call allocation the small-batch path legitimately avoids.

// TestLookupBatchIntoAllocFree pins zero allocations per call on the
// scratch-pooled batch search (LookupBatchSortedInto) at one bucket of
// unsorted queries, for both tree variants.
func TestLookupBatchIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, variant := range []core.Variant{core.Implicit, core.Regular} {
		t.Run(variant.String(), func(t *testing.T) {
			srv, pairs := newTestServer(t, variant, 1<<10)
			const n = 64
			queries := make([]uint64, n)
			values := make([]uint64, n)
			found := make([]bool, n)
			for i := range queries {
				queries[i] = pairs[(i*31)%len(pairs)].Key
			}
			// Warm the scratch pool.
			if _, err := srv.LookupBatchSortedInto(queries, values, found); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := srv.LookupBatchSortedInto(queries, values, found); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("LookupBatchSortedInto allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestCoalescedLookupPathAllocFree pins zero allocations per request on
// the full coalesced path: pooled reply cell, shard append, inline
// flush through LookupBatchSortedInto, result delivery — for Lookup, and for
// LookupCtx under a live deadline that does not expire (only an expired
// request gives up its reply cell). MaxBatch is 1 so every call
// deterministically exercises the whole pipeline.
func TestCoalescedLookupPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	co := NewCoalescer(srv, Options{MaxBatch: 1, Shards: 1})
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()

	for _, tc := range []struct {
		name   string
		lookup func(uint64) (uint64, bool, error)
	}{
		{"Lookup", co.Lookup},
		{"LookupCtx", func(k uint64) (uint64, bool, error) { return co.LookupCtx(ctx, k) }},
	} {
		// Warm the reply, batch and scratch pools.
		for i := 0; i < 32; i++ {
			if _, _, err := tc.lookup(pairs[i].Key); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			i++
			if _, _, err := tc.lookup(pairs[i%len(pairs)].Key); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("coalesced %s allocates %.1f times per request, want 0", tc.name, allocs)
		}
	}
}

// TestShardedLookupAllocFree pins zero allocations per request on the
// sharded point-lookup route: the key-to-shard binary search plus the
// shard Server's snapshot-pinned lookup.
func TestShardedLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	s, pairs := newShardedServer(t, core.Implicit, 1<<10, 4)
	keys := [4]uint64{pairs[1].Key, pairs[400].Key, pairs[700].Key, pairs[1000].Key}
	// Warm the per-shard lookup scratch.
	for _, k := range keys {
		s.Lookup(k)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if _, ok := s.Lookup(k); !ok {
				t.Fatal("lookup missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("sharded Lookup allocates %.2f times per run, want 0", allocs)
	}
}

// TestShardedCoalescedLookupAllocFree pins zero allocations per request
// on the coalesced route over a sharded backend — pooled reply cell,
// batch append, inline flush routed per shard — including with an admission
// window engaged (token acquire/release must not allocate).
func TestShardedCoalescedLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"unbounded", Options{MaxBatch: 1, Shards: 1}},
		{"bounded", Options{MaxBatch: 1, Shards: 1, MaxPending: 64}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s, pairs := newShardedServer(t, core.Implicit, 1<<10, 4)
			co := s.Coalesce(cfg.opt)
			defer co.Close()
			keys := [4]uint64{pairs[1].Key, pairs[400].Key, pairs[700].Key, pairs[1000].Key}
			// Warm the reply, batch and scratch pools of every shard.
			for i := 0; i < 32; i++ {
				for _, k := range keys {
					if _, _, err := co.Lookup(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				for _, k := range keys {
					if _, _, err := co.Lookup(k); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("sharded coalesced Lookup allocates %.2f times per run, want 0", allocs)
			}
		})
	}
}

// TestRefusedImplicitUpdateClonesNothing pins that a write refused by
// the implicit variant is refused before the clone path: one one-op
// Update on a 2^20-pair implicit server returns core's error, moves no
// counter and allocates well under the tree's inner segment.
func TestRefusedImplicitUpdateClonesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	srv, pairs := newTestServer(t, core.Implicit, 1<<20)
	ops := []cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 1}}
	before := srv.Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err := srv.Update(ops, core.Synchronized)
	runtime.ReadMemStats(&ms1)
	if err == nil || !strings.Contains(err.Error(), "core: Update applies to the regular variant") {
		t.Fatalf("Update on an implicit server: err = %v, want core's refusal", err)
	}
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 64<<10 {
		t.Fatalf("a refused one-op update allocated %d B, want <= 64 KiB", got)
	}
	if after := srv.Metrics(); after != before {
		t.Fatalf("a refused update moved the counters:\n before %+v\n after  %+v", before, after)
	}
}
