package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/workload"
)

// This file is the reader/writer stress suite DESIGN.md §5 promises:
// N reader goroutines issue point, range and batch lookups through the
// Server (and a Coalescer) while a writer applies batch updates, all
// cross-checked against a mutex-guarded map oracle. Run it under
// `go test -race`.
//
// Value encoding: every stored value is base(k) + gen, where base is
// the canonical workload value and gen counts the update generations
// applied to the key (0 = never updated). Readers can therefore verify
// any observed value without knowing exactly which updates have landed:
// the offset must lie in [0, maxGen], and — because updates run under
// the writer lock — the offset a single reader observes for a given key
// must never decrease.

const raceMaxGen = 6

// oracle is the mutex-guarded reference map the stress suite checks
// against.
type oracle struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (o *oracle) apply(ops []cpubtree.Op[uint64]) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, op := range ops {
		if op.Delete {
			delete(o.m, op.Key)
		} else {
			o.m[op.Key] = op.Value
		}
	}
}

func (o *oracle) snapshot() map[uint64]uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[uint64]uint64, len(o.m))
	for k, v := range o.m {
		out[k] = v
	}
	return out
}

// raceWorld is the shared fixture of one stress run.
type raceWorld struct {
	srv    *Server[uint64]
	stable []uint64 // keys never deleted; values move base+0 .. base+maxGen
	extra  []uint64 // keys inserted and deleted across generations
	oracle *oracle
	done   chan struct{}
}

// checkStable validates one observed (value, found) for a stable key
// and enforces per-reader monotonicity of the generation offset.
func (w *raceWorld) checkStable(t *testing.T, seen map[uint64]uint64, k, v uint64, found bool) {
	t.Helper()
	if !found {
		t.Errorf("stable key %d disappeared", k)
		return
	}
	base := workload.ValueFor(k)
	off := v - base
	if off > raceMaxGen {
		t.Errorf("stable key %d: value %d is no generation of base %d", k, v, base)
		return
	}
	if prev, ok := seen[k]; ok && off < prev {
		t.Errorf("stable key %d: generation went backwards %d -> %d", k, prev, off)
	}
	seen[k] = off
}

// newRaceWorld builds a regular-variant tree small enough for -race.
func newRaceWorld(t *testing.T, nPairs int) *raceWorld {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, nPairs, 99)
	tree, err := core.Build(pairs, core.Options{Variant: core.Regular, BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	w := &raceWorld{
		srv:    NewServer(tree),
		oracle: &oracle{m: make(map[uint64]uint64, nPairs)},
		done:   make(chan struct{}),
	}
	for _, p := range pairs {
		w.oracle.m[p.Key] = p.Value
		w.stable = append(w.stable, p.Key)
	}
	// Volatile keys: odd values interleaved between dataset keys (the
	// dataset generator spaces keys out, so collisions are improbable;
	// skip any that do collide).
	for i := 0; len(w.extra) < nPairs/8 && i < len(pairs); i += 8 {
		k := pairs[i].Key + 1
		if _, ok := w.oracle.m[k]; !ok {
			w.extra = append(w.extra, k)
		}
	}
	return w
}

// writerLoop applies raceMaxGen update generations: every stable key in
// a deterministic subset moves to base+gen, and the volatile keys are
// alternately inserted and deleted.
func (w *raceWorld) writerLoop(t *testing.T, method core.UpdateMethod) {
	defer close(w.done)
	for gen := uint64(1); gen <= raceMaxGen; gen++ {
		var ops []cpubtree.Op[uint64]
		for i, k := range w.stable {
			if i%3 == int(gen)%3 { // a third of the keys per generation
				ops = append(ops, cpubtree.Op[uint64]{Key: k, Value: workload.ValueFor(k) + gen})
			}
		}
		for _, k := range w.extra {
			if gen%2 == 1 {
				ops = append(ops, cpubtree.Op[uint64]{Key: k, Value: workload.ValueFor(k) + gen})
			} else {
				ops = append(ops, cpubtree.Op[uint64]{Key: k, Delete: true})
			}
		}
		if _, err := w.srv.Update(ops, method); err != nil {
			t.Errorf("writer gen %d: %v", gen, err)
			return
		}
		// The oracle is updated after the tree: readers racing in
		// between see the new tree state, whose generation offsets the
		// oracle-independent value encoding still validates.
		w.oracle.apply(ops)
		time.Sleep(time.Millisecond) // let readers in between generations
	}
}

// readerLoop hammers the read paths until the writer is done.
func (w *raceWorld) readerLoop(t *testing.T, seed int64, co *Coalescer[uint64]) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]uint64)
	for {
		select {
		case <-w.done:
			return
		default:
		}
		switch rng.Intn(5) {
		case 0: // point lookup
			k := w.stable[rng.Intn(len(w.stable))]
			v, found := w.srv.Lookup(k)
			w.checkStable(t, seen, k, v, found)
		case 1: // batch lookup
			qs := make([]uint64, 8)
			for i := range qs {
				qs[i] = w.stable[rng.Intn(len(w.stable))]
			}
			values, found, _, err := w.srv.LookupBatch(qs)
			if err != nil {
				t.Errorf("LookupBatch: %v", err)
				return
			}
			for i, k := range qs {
				w.checkStable(t, seen, k, values[i], found[i])
			}
		case 2: // range query: sorted, bounded, valid generations
			start := w.stable[rng.Intn(len(w.stable))]
			out := w.srv.RangeQuery(start, 16)
			if len(out) > 16 {
				t.Errorf("RangeQuery overflow: %d pairs", len(out))
				return
			}
			for i, p := range out {
				if p.Key < start || (i > 0 && p.Key <= out[i-1].Key) {
					t.Errorf("RangeQuery unsorted at %d", i)
					return
				}
				if off := p.Value - workload.ValueFor(p.Key); off > raceMaxGen {
					t.Errorf("RangeQuery: key %d value %d outside generations", p.Key, p.Value)
					return
				}
			}
		case 3: // cursor scan under the lock
			start := w.stable[rng.Intn(len(w.stable))]
			out := w.srv.Scan(start, 16)
			for i := 1; i < len(out); i++ {
				if out[i].Key <= out[i-1].Key {
					t.Errorf("Scan unsorted at %d", i)
					return
				}
			}
		case 4: // volatile key: may or may not exist, value must be valid
			k := w.extra[rng.Intn(len(w.extra))]
			var v uint64
			var found bool
			var err error
			if co != nil {
				v, found, err = co.Lookup(k)
				if err != nil {
					t.Errorf("coalesced lookup: %v", err)
					return
				}
			} else {
				v, found = w.srv.Lookup(k)
			}
			if found {
				if off := v - workload.ValueFor(k); off == 0 || off > raceMaxGen {
					t.Errorf("volatile key %d: impossible value %d", k, v)
					return
				}
			}
		}
	}
}

// finalCheck compares the tree against the oracle exactly once all
// goroutines have stopped, and audits the device replica.
func (w *raceWorld) finalCheck(t *testing.T) {
	t.Helper()
	snap := w.oracle.snapshot()
	qs := make([]uint64, 0, len(snap))
	for k := range snap {
		qs = append(qs, k)
	}
	values, found, _, err := w.srv.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range qs {
		if !found[i] || values[i] != snap[k] {
			t.Fatalf("final state: key %d = (%d, %v), oracle %d", k, values[i], found[i], snap[k])
		}
	}
	if w.srv.NumPairs() != len(snap) {
		t.Fatalf("final NumPairs %d, oracle %d", w.srv.NumPairs(), len(snap))
	}
	if err := w.srv.tree().VerifyReplica(); err != nil {
		t.Fatal(err)
	}
}

// TestRaceReadersVsBatchUpdates is the core stress test: direct readers
// against a writer using the asynchronous parallel update method.
func TestRaceReadersVsBatchUpdates(t *testing.T) {
	nPairs, readers := 1<<12, 6
	if testing.Short() {
		nPairs, readers = 1<<10, 3
	}
	w := newRaceWorld(t, nPairs)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.readerLoop(t, int64(r), nil)
		}(r)
	}
	w.writerLoop(t, core.AsyncParallel)
	wg.Wait()
	w.finalCheck(t)
}

// TestRaceCoalescedReadersVsSynchronizedUpdates routes the point
// lookups through a Coalescer while the writer uses the synchronized
// per-node replica maintenance — the pairing with the most read/write
// interleaving surface.
func TestRaceCoalescedReadersVsSynchronizedUpdates(t *testing.T) {
	nPairs, readers := 1<<11, 4
	if testing.Short() {
		nPairs, readers = 1<<10, 2
	}
	w := newRaceWorld(t, nPairs)
	co := NewCoalescer(w.srv, Options{MaxBatch: 32, Window: 100 * time.Microsecond})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w.readerLoop(t, int64(100+r), co)
		}(r)
	}
	w.writerLoop(t, core.Synchronized)
	wg.Wait()
	co.Close()
	w.finalCheck(t)
}

// TestRaceConcurrentBatchLookups runs many concurrent LookupBatch
// calls with tracing enabled on a shared tree: the isolated-timeline
// guarantee of the core audit (each call composes its own timeline;
// publication of the trace is serialised).
func TestRaceConcurrentBatchLookups(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<12)
	srv.tree().SetTrace(true)
	qs := make([]uint64, 256)
	for i := range qs {
		qs[i] = pairs[(i*17)%len(pairs)].Key
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				values, found, _, err := srv.LookupBatch(qs)
				if err != nil {
					t.Error(err)
					return
				}
				for j, q := range qs {
					if !found[j] || values[j] != workload.ValueFor(q) {
						t.Errorf("batch[%d] wrong under concurrency", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if srv.tree().LastTrace() == nil {
		t.Fatal("no trace published")
	}
}
