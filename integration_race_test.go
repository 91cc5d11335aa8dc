package hbtree_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hbtree"
)

// Integration stress test of the public serving facade: coalesced and
// direct readers against a writer rebuilding the implicit tree, all on
// one shared hbtree.Server. Run under `go test -race`; pairs with the
// internal/serve suite, which stresses the regular variant's batch
// updates.
//
// Value encoding: generation g stores ValueFor(key)+g for every key, so
// readers can validate any observed value (offset in [0, gens]) and
// enforce that the offset never decreases for a single reader — the
// linearization the server's writer lock guarantees.
func TestIntegrationCoalescedServingUnderRebuilds(t *testing.T) {
	nPairs, readers, gens := 1<<12, 5, uint64(4)
	if testing.Short() {
		nPairs, readers, gens = 1<<10, 3, 2
	}
	base := hbtree.GeneratePairs[uint64](nPairs, 7)
	tree, err := hbtree.New(base, hbtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := hbtree.NewServer(tree)
	defer srv.Close()
	co := srv.Coalesce(hbtree.CoalescerOptions{MaxBatch: 128, Window: 200 * time.Microsecond})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			seen := make(map[uint64]uint64)
			check := func(k, v uint64, found bool) bool {
				if !found {
					t.Errorf("key %d disappeared during rebuild", k)
					return false
				}
				off := v - hbtree.ValueFor(k)
				if off > gens {
					t.Errorf("key %d: value %d is no valid generation", k, v)
					return false
				}
				if prev, ok := seen[k]; ok && off < prev {
					t.Errorf("key %d: generation went backwards %d -> %d", k, prev, off)
					return false
				}
				seen[k] = off
				return true
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0: // coalesced point lookup
					k := base[rng.Intn(len(base))].Key
					v, found, err := co.Lookup(k)
					if err != nil {
						t.Errorf("coalesced lookup: %v", err)
						return
					}
					if !check(k, v, found) {
						return
					}
				case 1: // direct heterogeneous batch
					qs := make([]uint64, 16)
					for i := range qs {
						qs[i] = base[rng.Intn(len(base))].Key
					}
					values, found, _, err := srv.LookupBatch(qs)
					if err != nil {
						t.Errorf("LookupBatch: %v", err)
						return
					}
					for i, k := range qs {
						if !check(k, values[i], found[i]) {
							return
						}
					}
				case 2: // range query: sorted and generation-consistent
					start := base[rng.Intn(len(base))].Key
					out := srv.RangeQuery(start, 8)
					for i, p := range out {
						if i > 0 && p.Key <= out[i-1].Key {
							t.Errorf("RangeQuery unsorted")
							return
						}
						if off := p.Value - hbtree.ValueFor(p.Key); off > gens {
							t.Errorf("RangeQuery: invalid generation for key %d", p.Key)
							return
						}
					}
				}
			}
		}(r)
	}

	// Writer: rebuild the whole implicit tree once per generation, the
	// variant's only update path (Section 5.6).
	for g := uint64(1); g <= gens; g++ {
		next := make([]hbtree.Pair[uint64], len(base))
		for i, p := range base {
			next[i] = hbtree.Pair[uint64]{Key: p.Key, Value: p.Value + g}
		}
		if _, err := srv.Rebuild(next); err != nil {
			t.Errorf("rebuild gen %d: %v", g, err)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	co.Close()

	// Final state: every key at the last generation.
	qs := make([]uint64, len(base))
	for i, p := range base {
		qs[i] = p.Key
	}
	values, found, _, err := srv.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range base {
		if !found[i] || values[i] != p.Value+gens {
			t.Fatalf("final key %d = (%d, %v), want %d", p.Key, values[i], found[i], p.Value+gens)
		}
	}
}

// TestIntegrationSwapHeavyUpdatesUnderReads stresses the snapshot
// publication path of the facade on the regular variant: concurrent
// coalesced, batch and range readers against a writer that applies
// every generation as many small Update batches — each one a
// clone-and-swap publication. The per-reader oracle enforces the same
// generation monotonicity as the rebuild test above: the atomic
// snapshot pointer gives publications a total order, so a single
// reader can never observe a key's generation move backwards.
func TestIntegrationSwapHeavyUpdatesUnderReads(t *testing.T) {
	nPairs, readers, gens := 1<<12, 4, uint64(4)
	if testing.Short() {
		nPairs, readers, gens = 1<<10, 3, 2
	}
	base := hbtree.GeneratePairs[uint64](nPairs, 11)
	tree, err := hbtree.New(base, hbtree.Options{Variant: hbtree.Regular})
	if err != nil {
		t.Fatal(err)
	}
	srv := hbtree.NewServer(tree)
	defer srv.Close()
	co := srv.Coalesce(hbtree.CoalescerOptions{MaxBatch: 128, Window: 200 * time.Microsecond})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 100))
			seen := make(map[uint64]uint64)
			check := func(k, v uint64, found bool) bool {
				if !found {
					t.Errorf("key %d disappeared during update", k)
					return false
				}
				off := v - hbtree.ValueFor(k)
				if off > gens {
					t.Errorf("key %d: value %d is no valid generation", k, v)
					return false
				}
				if prev, ok := seen[k]; ok && off < prev {
					t.Errorf("key %d: generation went backwards %d -> %d", k, prev, off)
					return false
				}
				seen[k] = off
				return true
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0: // coalesced point lookup
					k := base[rng.Intn(len(base))].Key
					v, found, err := co.Lookup(k)
					if err != nil {
						t.Errorf("coalesced lookup: %v", err)
						return
					}
					if !check(k, v, found) {
						return
					}
				case 1: // direct heterogeneous batch
					qs := make([]uint64, 16)
					for i := range qs {
						qs[i] = base[rng.Intn(len(base))].Key
					}
					values, found, _, err := srv.LookupBatch(qs)
					if err != nil {
						t.Errorf("LookupBatch: %v", err)
						return
					}
					for i, k := range qs {
						if !check(k, values[i], found[i]) {
							return
						}
					}
				case 2: // range query: sorted and generation-consistent
					start := base[rng.Intn(len(base))].Key
					out := srv.RangeQuery(start, 8)
					for i, p := range out {
						if i > 0 && p.Key <= out[i-1].Key {
							t.Errorf("RangeQuery unsorted")
							return
						}
						if off := p.Value - hbtree.ValueFor(p.Key); off > gens {
							t.Errorf("RangeQuery: invalid generation for key %d", p.Key)
							return
						}
					}
				}
			}
		}(r)
	}

	// Writer: each generation lands as many small batches, every one a
	// snapshot publication.
	const chunk = 256
	for g := uint64(1); g <= gens; g++ {
		for start := 0; start < len(base); start += chunk {
			end := min(start+chunk, len(base))
			ops := make([]hbtree.Op[uint64], 0, chunk)
			for _, p := range base[start:end] {
				ops = append(ops, hbtree.Op[uint64]{Key: p.Key, Value: p.Value + g})
			}
			if _, err := srv.Update(ops, hbtree.AsyncParallel); err != nil {
				t.Errorf("update gen %d: %v", g, err)
				break
			}
		}
	}
	close(done)
	wg.Wait()
	co.Close()

	if want := int64(gens) * int64((nPairs+chunk-1)/chunk); srv.Swaps() != want {
		t.Fatalf("swaps = %d, want %d", srv.Swaps(), want)
	}

	// Final state: every key at the last generation.
	qs := make([]uint64, len(base))
	for i, p := range base {
		qs[i] = p.Key
	}
	values, found, _, err := srv.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range base {
		if !found[i] || values[i] != p.Value+gens {
			t.Fatalf("final key %d = (%d, %v), want %d", p.Key, values[i], found[i], p.Value+gens)
		}
	}
}

// TestTreeCoalescedFacade exercises the one-call Tree.Coalesced path
// and the closed-coalescer error surface.
func TestTreeCoalescedFacade(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<10, 3)
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, co := tree.Coalesced()
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				p := pairs[(g*32+i)%len(pairs)]
				v, found, err := co.Lookup(p.Key)
				if err != nil || !found || v != p.Value {
					t.Errorf("coalesced lookup = (%d, %v, %v)", v, found, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	co.Close()
	if _, _, err := co.Lookup(pairs[0].Key); !errors.Is(err, hbtree.ErrServerClosed) {
		t.Fatalf("post-close err = %v, want ErrServerClosed", err)
	}
	m := srv.Metrics()
	if m.Batches == 0 || m.BatchedQueries != 4*32 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestIntegrationShardedStitchingUnderSwaps stresses the key-space
// sharded facade: cross-shard RangeQuery/Scan stitches and coalesced
// point reads race against a writer pushing generations through the
// per-shard update pumps, so every read crosses shard boundaries while
// the shards swap snapshots independently. The oracle checks three
// contracts: point reads never see a key's generation move backwards
// (per-shard snapshots are totally ordered), stitched ranges are
// exactly the consecutive run of the fixed key set (no key lost,
// duplicated or reordered at a boundary), and every stitched value is a
// valid generation (a torn view within one shard is impossible even
// though the stitch is not one atomic cut across shards).
func TestIntegrationShardedStitchingUnderSwaps(t *testing.T) {
	nPairs, readers, gens := 1<<12, 4, uint64(4)
	if testing.Short() {
		nPairs, readers, gens = 1<<10, 3, 2
	}
	const shards = 4
	base := hbtree.GeneratePairs[uint64](nPairs, 17)
	tree, err := hbtree.New(base, hbtree.Options{Variant: hbtree.Regular})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tree.Sharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	co := srv.Coalesce(hbtree.CoalescerOptions{MaxBatch: 128, Window: 200 * time.Microsecond})

	// Stitch starts: a few pairs before each shard bound, so an 8-pair
	// range always crosses the boundary, plus random starts.
	keyIdx := make(map[uint64]int, len(base))
	for i, p := range base {
		keyIdx[p.Key] = i
	}
	bounds := srv.Bounds()
	boundaryStarts := make([]int, 0, len(bounds))
	for _, b := range bounds {
		boundaryStarts = append(boundaryStarts, keyIdx[b]-4)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 500))
			seen := make(map[uint64]uint64)
			check := func(k, v uint64, found bool) bool {
				if !found {
					t.Errorf("key %d disappeared during sharded update", k)
					return false
				}
				off := v - hbtree.ValueFor(k)
				if off > gens {
					t.Errorf("key %d: value %d is no valid generation", k, v)
					return false
				}
				if prev, ok := seen[k]; ok && off < prev {
					t.Errorf("key %d: generation went backwards %d -> %d", k, prev, off)
					return false
				}
				seen[k] = off
				return true
			}
			checkStitch := func(kind string, startIdx int, out []hbtree.Pair[uint64]) bool {
				// The key set is fixed, so a stitched window must be
				// exactly the consecutive run of base keys from the
				// start — any boundary slip shows as a wrong key.
				for i, p := range out {
					want := base[startIdx+i].Key
					if p.Key != want {
						t.Errorf("%s from base[%d]: pos %d has key %d, want %d", kind, startIdx, i, p.Key, want)
						return false
					}
					if off := p.Value - hbtree.ValueFor(p.Key); off > gens {
						t.Errorf("%s: invalid generation for key %d", kind, p.Key)
						return false
					}
				}
				if len(out) != 8 {
					t.Errorf("%s from base[%d]: got %d pairs, want 8", kind, startIdx, len(out))
					return false
				}
				return true
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0: // coalesced point lookup, routed by key
					k := base[rng.Intn(len(base))].Key
					v, found, err := co.Lookup(k)
					if err != nil {
						t.Errorf("coalesced lookup: %v", err)
						return
					}
					if !check(k, v, found) {
						return
					}
				case 1: // batch lookup scattered across all shards
					qs := make([]uint64, 16)
					for i := range qs {
						qs[i] = base[rng.Intn(len(base))].Key
					}
					values, found, _, err := srv.LookupBatch(qs)
					if err != nil {
						t.Errorf("LookupBatch: %v", err)
						return
					}
					for i, k := range qs {
						if !check(k, values[i], found[i]) {
							return
						}
					}
				case 2: // boundary-crossing range stitch
					startIdx := boundaryStarts[rng.Intn(len(boundaryStarts))]
					if !checkStitch("RangeQuery", startIdx, srv.RangeQuery(base[startIdx].Key, 8)) {
						return
					}
				case 3: // cursor scan stitch from a random start
					startIdx := rng.Intn(len(base) - 8)
					if !checkStitch("Scan", startIdx, srv.Scan(base[startIdx].Key, 8)) {
						return
					}
				}
			}
		}(r)
	}

	// Writer: each generation lands as many small cross-shard batches.
	// Chunk c takes every nChunks-th key starting at c, so each Update
	// spans the whole key space, fans out to all four pumps and
	// publishes four concurrent swaps racing the stitched readers.
	const chunk = 256
	nChunks := (len(base) + chunk - 1) / chunk
	for g := uint64(1); g <= gens; g++ {
		for c := 0; c < nChunks; c++ {
			ops := make([]hbtree.Op[uint64], 0, chunk)
			for j := c; j < len(base); j += nChunks {
				ops = append(ops, hbtree.Op[uint64]{Key: base[j].Key, Value: base[j].Value + g})
			}
			if _, err := srv.Update(ops, hbtree.AsyncParallel); err != nil {
				t.Errorf("sharded update gen %d: %v", g, err)
				break
			}
		}
	}
	close(done)
	wg.Wait()
	co.Close()

	// Every shard took part in the swapping.
	_, _, metrics := srv.ShardStats()
	for i, m := range metrics {
		if m.Swaps == 0 {
			t.Fatalf("shard %d never swapped", i)
		}
	}

	// Final state: every key at the last generation, via a cross-shard
	// batch lookup and a full stitched scan.
	qs := make([]uint64, len(base))
	for i, p := range base {
		qs[i] = p.Key
	}
	values, found, _, err := srv.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range base {
		if !found[i] || values[i] != p.Value+gens {
			t.Fatalf("final key %d = (%d, %v), want %d", p.Key, values[i], found[i], p.Value+gens)
		}
	}
	all := srv.Scan(0, len(base)+1)
	if len(all) != len(base) {
		t.Fatalf("full stitched scan returned %d pairs, want %d", len(all), len(base))
	}
	for i, p := range all {
		if p.Key != base[i].Key || p.Value != base[i].Value+gens {
			t.Fatalf("stitched scan[%d] = %v, want {%d %d}", i, p, base[i].Key, base[i].Value+gens)
		}
	}
}
