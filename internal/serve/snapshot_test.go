package serve

import (
	"sync"
	"testing"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
)

// TestSnapshotReaderSeesOldVersionToCompletion pins the published
// version as a reader would, runs a batch update that swaps in a
// successor, and verifies that (a) the pinned version still serves the
// pre-update values with a live device replica, and (b) its device
// memory is released only when the pinned reference drains.
func TestSnapshotReaderSeesOldVersionToCompletion(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<12)
	key := pairs[9].Key
	oldVal := pairs[9].Value

	tree0, sn := srv.acquire()
	if !sn.Valid() {
		t.Fatal("snapshot server returned a locked-mode pin")
	}

	if _, err := srv.Update([]cpubtree.Op[uint64]{{Key: key, Value: 4242}}, core.AsyncParallel); err != nil {
		t.Fatal(err)
	}
	if srv.tree() == tree0 {
		t.Fatal("update did not publish a new version")
	}
	if srv.Swaps() != 1 {
		t.Fatalf("swaps = %d, want 1", srv.Swaps())
	}

	// The new version serves the update; the pinned old version still
	// serves the original value from a live (unreleased) replica.
	if v, ok := srv.Lookup(key); !ok || v != 4242 {
		t.Fatalf("new version lookup = (%d, %v), want (4242, true)", v, ok)
	}
	if v, ok := tree0.Lookup(key); !ok || v != oldVal {
		t.Fatalf("pinned version lookup = (%d, %v), want (%d, true)", v, ok, oldVal)
	}
	if err := tree0.VerifyReplica(); err != nil {
		t.Fatalf("pinned version's device replica released early: %v", err)
	}
	qs := []uint64{key, pairs[0].Key}
	values, found, _, err := tree0.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || values[0] != oldVal {
		t.Fatalf("pinned heterogeneous batch = (%d, %v), want (%d, true)", values[0], found[0], oldVal)
	}

	// Releasing the last reference frees the retired version's device
	// buffers: the shared device's occupancy drops.
	dev := tree0.Device()
	before := dev.MemUsed()
	sn.Unpin()
	after := dev.MemUsed()
	if after >= before {
		t.Fatalf("retired snapshot not released: device %d -> %d bytes", before, after)
	}
}

// TestSnapshotUpdateFailureKeepsVersion: a failed batch must not
// publish — the current version stays untouched (the atomicity the
// in-place locked path cannot offer).
func TestSnapshotUpdateFailureKeepsVersion(t *testing.T) {
	srv, _ := newTestServer(t, core.Implicit, 1<<10)
	tree0 := srv.tree()
	// Update on the implicit variant is an error by contract.
	if _, err := srv.Update([]cpubtree.Op[uint64]{{Key: 1, Value: 1}}, core.AsyncParallel); err == nil {
		t.Fatal("implicit-variant Update unexpectedly succeeded")
	}
	if srv.tree() != tree0 || srv.Swaps() != 0 {
		t.Fatal("failed update published a new version")
	}
}

// TestSnapshotRebuildPublishes: the implicit variant's rebuild swaps in
// a freshly built version; readers pinned across it finish on the old
// one.
func TestSnapshotRebuildPublishes(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	tree0, sn := srv.acquire()

	next := make([]keys.Pair[uint64], len(pairs))
	for i, p := range pairs {
		next[i] = keys.Pair[uint64]{Key: p.Key, Value: p.Value + 7}
	}
	if _, err := srv.Rebuild(next); err != nil {
		t.Fatal(err)
	}
	if srv.tree() == tree0 {
		t.Fatal("rebuild did not publish a new version")
	}
	if v, ok := srv.Lookup(pairs[3].Key); !ok || v != pairs[3].Value+7 {
		t.Fatalf("rebuilt lookup = (%d, %v)", v, ok)
	}
	if v, ok := tree0.Lookup(pairs[3].Key); !ok || v != pairs[3].Value {
		t.Fatalf("pinned pre-rebuild lookup = (%d, %v)", v, ok)
	}
	sn.Unpin()
}

// TestSnapshotCloseWaitsForReaders: Server.Close with a pinned reader
// defers the device release until the reader drains.
func TestSnapshotCloseWaitsForReaders(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<10)
	tree0, sn := srv.acquire()
	dev := tree0.Device()
	before := dev.MemUsed()
	srv.Close()
	if dev.MemUsed() != before {
		t.Fatal("Close released the version while a reader was pinned")
	}
	if v, ok := tree0.Lookup(pairs[2].Key); !ok || v != pairs[2].Value {
		t.Fatalf("pinned lookup after Close = (%d, %v)", v, ok)
	}
	sn.Unpin()
	if dev.MemUsed() >= before {
		t.Fatal("version not released after the last reader drained")
	}
	srv.Close() // idempotent
}

// TestSnapshotConcurrentReadersAndWriters hammers the snapshot server
// with concurrent readers while a writer publishes swap-heavy update
// batches; each reader checks per-key generation monotonicity (the
// atomic-pointer publication order) and no reader ever blocks for the
// full duration of a write.
func TestSnapshotConcurrentReadersAndWriters(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<12)
	const readers = 4
	gens := uint64(6)
	if testing.Short() {
		gens = 3
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := make(map[uint64]uint64)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := pairs[(r*131+i*17)%len(pairs)]
				v, ok := srv.Lookup(p.Key)
				if !ok {
					t.Errorf("key %d disappeared", p.Key)
					return
				}
				off := v - p.Value
				if off > gens {
					t.Errorf("key %d: invalid generation offset %d", p.Key, off)
					return
				}
				if prev := seen[p.Key]; off < prev {
					t.Errorf("key %d: generation went backwards %d -> %d", p.Key, prev, off)
					return
				}
				seen[p.Key] = off
			}
		}(r)
	}

	// Swap-heavy writer: every generation is applied in many small
	// batches, each one a clone+publish.
	const chunk = 256
	for g := uint64(1); g <= gens; g++ {
		for start := 0; start < len(pairs); start += chunk {
			end := min(start+chunk, len(pairs))
			ops := make([]cpubtree.Op[uint64], 0, chunk)
			for _, p := range pairs[start:end] {
				ops = append(ops, cpubtree.Op[uint64]{Key: p.Key, Value: p.Value + g})
			}
			if _, err := srv.Update(ops, core.AsyncParallel); err != nil {
				t.Fatalf("update gen %d: %v", g, err)
			}
		}
	}
	close(done)
	wg.Wait()

	if srv.Swaps() == 0 {
		t.Fatal("no snapshot publications recorded")
	}
	if err := srv.tree().VerifyReplica(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs[:64] {
		if v, ok := srv.Lookup(p.Key); !ok || v != p.Value+gens {
			t.Fatalf("final key %d = (%d, %v), want %d", p.Key, v, ok, p.Value+gens)
		}
	}
	srv.Close()
}
