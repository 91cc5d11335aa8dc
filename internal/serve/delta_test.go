package serve

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// Serving-layer coverage of the in-place gapped-leaf update path
// (DESIGN §10): equality against a clone-only oracle, the write-path
// metrics plumbing, and the epoch contract under -race —
// readers pinned to an older epoch must keep seeing their exact
// pre-batch values while the pump applies batches in place.

// gappedFill leaves slack in every leaf so batches can land in place;
// fullFill leaves none, so every batch that appends to a bulk-loaded
// leaf takes the clone path — the clone-only oracle, built from an
// input rather than a switch. Splits on the clone path do leave
// half-empty leaves behind, so the oracle tests size their datasets for
// those to stay a small minority: a batch then always touches a full
// leaf.
const (
	gappedFill = 0.8
	fullFill   = 1.0
)

func newDeltaServer(t testing.TB, n int, leafFill float64) (*Server[uint64], []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 77)
	tree, err := core.Build(pairs, core.Options{Variant: core.Regular, LeafFill: leafFill, BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tree)
	t.Cleanup(srv.Close)
	return srv, pairs
}

// deltaBatches generates a deterministic sequence of update batches:
// overwrites, inserts of near-miss keys and deletes of earlier inserts.
func deltaBatches(pairs []keys.Pair[uint64], rounds, size int) [][]cpubtree.Op[uint64] {
	rng := rand.New(rand.NewSource(9))
	out := make([][]cpubtree.Op[uint64], rounds)
	for r := range out {
		ops := make([]cpubtree.Op[uint64], size)
		for i := range ops {
			p := pairs[rng.Intn(len(pairs))]
			switch rng.Intn(4) {
			case 0: // insert a near-miss key
				ops[i] = cpubtree.Op[uint64]{Key: p.Key + 1 + uint64(rng.Intn(5)), Value: uint64(r*1000 + i)}
			case 1: // delete (hit or miss)
				ops[i] = cpubtree.Op[uint64]{Key: p.Key + uint64(rng.Intn(2)), Delete: true}
			default: // overwrite
				ops[i] = cpubtree.Op[uint64]{Key: p.Key, Value: uint64(r*1000 + i)}
			}
		}
		out[r] = ops
	}
	return out
}

// TestDeltaVsCloneServingEquality drives the same batch sequence
// through a gapped server and the full-leaf clone-only oracle and
// requires byte-identical read results, while the metrics prove the
// two actually took different apply paths.
func TestDeltaVsCloneServingEquality(t *testing.T) {
	fast, pairs := newDeltaServer(t, 1<<15, gappedFill)
	base, _ := newDeltaServer(t, 1<<15, fullFill)

	for r, ops := range deltaBatches(pairs, 12, 96) {
		if _, err := fast.Update(ops, core.AsyncParallel); err != nil {
			t.Fatalf("round %d fast: %v", r, err)
		}
		if _, err := base.Update(ops, core.AsyncParallel); err != nil {
			t.Fatalf("round %d base: %v", r, err)
		}
	}

	mf, mb := fast.Metrics(), base.Metrics()
	if mf.InPlaceApplied == 0 {
		t.Fatalf("delta server applied nothing in place: %+v", mf)
	}
	if mb.InPlaceApplied != 0 {
		t.Fatalf("full-leaf oracle applied a batch in place: %+v", mb)
	}
	if mb.ClonedNodes == 0 || mb.ClonedBytes == 0 {
		t.Fatalf("oracle recorded no clone footprint: %+v", mb)
	}
	if mf.ClonedBytes >= mb.ClonedBytes {
		t.Fatalf("delta server cloned as much as the oracle: %d vs %d bytes",
			mf.ClonedBytes, mb.ClonedBytes)
	}

	// Full-scan equality.
	nf, nb := fast.NumPairs(), base.NumPairs()
	if nf != nb {
		t.Fatalf("NumPairs diverged: %d vs %d", nf, nb)
	}
	sf := fast.Scan(0, nf+10)
	sb := base.Scan(0, nb+10)
	if len(sf) != len(sb) {
		t.Fatalf("scan lengths diverged: %d vs %d", len(sf), len(sb))
	}
	for i := range sf {
		if sf[i] != sb[i] {
			t.Fatalf("scan[%d]: %v vs %v", i, sf[i], sb[i])
		}
	}

	// Point and batch lookups across both servers.
	qs := make([]uint64, 0, 2*len(pairs))
	for _, p := range pairs[:1000] {
		qs = append(qs, p.Key, p.Key+1)
	}
	vf, ff, _, err := fast.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	vb, fb, _, err := base.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if ff[i] != fb[i] || (ff[i] && vf[i] != vb[i]) {
			t.Fatalf("lookup %d: (%d,%v) vs (%d,%v)", qs[i], vf[i], ff[i], vb[i], fb[i])
		}
	}
}

// TestShardedDeltaMetrics checks the sharded layer: in-place applies on
// shard members surface in the aggregate metrics, and a full-leaf
// sharded server records clone footprint instead.
func TestShardedDeltaMetrics(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 5)
	for _, fill := range []float64{gappedFill, fullFill} {
		opt := core.Options{Variant: core.Regular, LeafFill: fill, BucketSize: 64}
		s, err := BuildSharded(pairs, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		for r, ops := range deltaBatches(pairs, 6, 128) {
			if _, err := s.Update(ops, core.AsyncParallel); err != nil {
				t.Fatalf("fill=%v round %d: %v", fill, r, err)
			}
		}
		m := s.Metrics()
		if fill == gappedFill && m.InPlaceApplied == 0 {
			t.Fatalf("sharded delta run applied nothing in place: %+v", m)
		}
		if fill == fullFill && (m.InPlaceApplied != 0 || m.ClonedBytes == 0) {
			t.Fatalf("sharded full-leaf metrics wrong: %+v", m)
		}
		s.Close()
	}
}

// TestRaceEpochPinnedReadersDuringInPlaceApplies is the -race oracle of
// the epoch contract: readers pin an epoch, snapshot values, yield to
// the writer (which publishes in-place forks of newer epochs), and
// re-read the SAME pinned tree — every value must be bit-identical to
// the snapshot, proving in-place applies never touch a slot an older
// pinned epoch reads.
func TestRaceEpochPinnedReadersDuringInPlaceApplies(t *testing.T) {
	srv, pairs := newDeltaServer(t, 1<<12, gappedFill)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ks := make([]uint64, 24)
			vs := make([]uint64, 24)
			fs := make([]bool, 24)
			for {
				select {
				case <-done:
					return
				default:
				}
				tree, p := srv.acquire()
				for i := range ks {
					ks[i] = pairs[rng.Intn(len(pairs))].Key + uint64(rng.Intn(2))
					vs[i], fs[i] = tree.Lookup(ks[i])
				}
				runtime.Gosched() // let in-place forks publish meanwhile
				for i := range ks {
					v, ok := tree.Lookup(ks[i])
					if ok != fs[i] || v != vs[i] {
						t.Errorf("pinned epoch moved: key %d was (%d,%v), now (%d,%v)",
							ks[i], vs[i], fs[i], v, ok)
						p.Unpin()
						return
					}
				}
				// An ordered scan on the pinned epoch must stay sorted.
				start := pairs[rng.Intn(len(pairs))].Key
				out := scanTree(tree, start, 16, nil)
				for i := 1; i < len(out); i++ {
					if out[i].Key <= out[i-1].Key {
						t.Errorf("pinned scan unsorted at %d", i)
						p.Unpin()
						return
					}
				}
				p.Unpin()
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(123))
	for gen := 1; gen <= 120; gen++ {
		ops := make([]cpubtree.Op[uint64], 64)
		for i := range ops {
			p := pairs[rng.Intn(len(pairs))]
			if i%5 == 0 {
				ops[i] = cpubtree.Op[uint64]{Key: p.Key + 1, Delete: true}
			} else {
				ops[i] = cpubtree.Op[uint64]{Key: p.Key, Value: uint64(gen)}
			}
		}
		if _, err := srv.Update(ops, core.AsyncParallel); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	m := srv.Metrics()
	if m.InPlaceApplied == 0 {
		t.Fatalf("writer never took the in-place path: %+v", m)
	}
	t.Logf("in-place %d, clone fallbacks %d, cloned %d bytes",
		m.InPlaceApplied, m.CloneFallbacks, m.ClonedBytes)
}
