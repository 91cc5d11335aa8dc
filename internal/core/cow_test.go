package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// Copy-on-write leaves (DESIGN §10): a fork or a clone shares the leaf
// data of its source, so every tree must read exactly its own history
// however many successors write into the leaves it can still read.

// cowTree is one tree of an isolation scenario with the model of what
// it must hold.
type cowTree[K keys.Key] struct {
	name  string
	tree  *Tree[K]
	model map[K]K
}

// checkCowTree compares a tree with its model: every model key and the
// given probes through Lookup and the device batch path, and the full
// ordered scan.
func checkCowTree[K keys.Key](t *testing.T, c cowTree[K], probes []K) {
	t.Helper()
	qs := append(slices.Collect(maps.Keys(c.model)), probes...)
	vals, fnd, _, err := c.tree.LookupBatch(qs)
	if err != nil {
		t.Fatalf("%s: LookupBatch: %v", c.name, err)
	}
	for i, q := range qs {
		want, ok := c.model[q]
		if v, f := c.tree.Lookup(q); f != ok || ok && v != want {
			t.Fatalf("%s: Lookup(%d) = (%d, %v), model (%d, %v)", c.name, q, v, f, want, ok)
		}
		if fnd[i] != ok || ok && vals[i] != want {
			t.Fatalf("%s: LookupBatch(%d) = (%d, %v), model (%d, %v)", c.name, q, vals[i], fnd[i], want, ok)
		}
	}
	scan := c.tree.RangeQuery(0, len(c.model)+1, nil)
	if len(scan) != len(c.model) || c.tree.NumPairs() != len(c.model) {
		t.Fatalf("%s: scan %d pairs, NumPairs %d, model %d", c.name, len(scan), c.tree.NumPairs(), len(c.model))
	}
	for i, p := range scan {
		if v, ok := c.model[p.Key]; !ok || v != p.Value || i > 0 && scan[i-1].Key >= p.Key {
			t.Fatalf("%s: scan[%d] = %v, model (%d, %v)", c.name, i, p, v, ok)
		}
	}
	if err := c.tree.VerifyReplica(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
}

// cowApply applies ops to c's tree — in place when they fit the gaps,
// else by Clone and a synchronised Update, as the serving layer does —
// and returns the successor with its model. c keeps its own.
func cowApply[K keys.Key](t *testing.T, c cowTree[K], name string, ops []cpubtree.Op[K]) cowTree[K] {
	t.Helper()
	var plan cpubtree.DeltaPlan[K]
	next, _, ok := c.tree.ApplyDelta(ops, &plan)
	if !ok {
		var err error
		if next, err = c.tree.Clone(); err != nil {
			t.Fatal(err)
		}
		if _, err := next.Update(ops, Synchronized); err != nil {
			t.Fatalf("%s: Update: %v", name, err)
		}
	}
	model := maps.Clone(c.model)
	for _, op := range ops {
		if op.Delete {
			delete(model, op.Key)
		} else {
			model[op.Key] = op.Value
		}
	}
	return cowTree[K]{name: name, tree: next, model: model}
}

// cowClone clones c's tree; the clone starts with c's model.
func cowClone[K keys.Key](t *testing.T, c cowTree[K], name string) cowTree[K] {
	t.Helper()
	cl, err := c.tree.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return cowTree[K]{name: name, tree: cl, model: maps.Clone(c.model)}
}

// TestSiblingForksAndClonesAreIsolated writes into one leaf from trees
// that share it: two forks of one base, a clone rewriting a leaf its
// source reads, a clone and its source both forking after the clone,
// and a clone restructuring the leaf (splits, then deletes) while its
// source's fork chain keeps appending to it.
// Every tree must read exactly its own history.
func TestSiblingForksAndClonesAreIsolated(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { testSiblingIsolation[uint64](t) })
	t.Run("uint32", func(t *testing.T) { testSiblingIsolation[uint32](t) })
}

func testSiblingIsolation[K keys.Key](t *testing.T) {
	pairs := workload.Dataset[K](workload.Uniform, 5000, 3)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	base := cowTree[K]{name: "base", tree: tr, model: make(map[K]K, len(pairs))}
	for _, p := range pairs {
		base.model[p.Key] = p.Value
	}
	// Absent keys strictly between two neighbours all land in one leaf.
	lo := pairs[len(pairs)/2].Key
	fresh := func(i int) K { return lo + K(1+i) }
	put := func(i int, v K) []cpubtree.Op[K] { return []cpubtree.Op[K]{{Key: fresh(i), Value: v}} }
	probes := []K{fresh(0), fresh(1), fresh(2), fresh(3), fresh(4)}

	var all []cowTree[K]
	check := func() {
		t.Helper()
		for _, c := range all {
			checkCowTree(t, c, probes)
		}
	}

	// Two forks from the same base append to the same gap.
	f1 := cowApply(t, base, "fork 1", put(0, 111))
	f2 := cowApply(t, base, "fork 2", put(1, 222))
	all = append(all, base, f1, f2)
	check()
	all = append(all, cowApply(t, f1, "fork 1.1", put(2, 333)), cowApply(t, f2, "fork 2.1", put(2, 444)))
	check()

	// A clone rewrites a leaf without deltas, which its source reads.
	rw := cowClone(t, base, "rewritten clone of base")
	other := pairs[len(pairs)/4].Key
	if _, err := rw.tree.Update([]cpubtree.Op[K]{{Key: other, Delete: true}, {Key: other + 1, Value: 777}}, Synchronized); err != nil {
		t.Fatal(err)
	}
	delete(rw.model, other)
	rw.model[other+1] = 777
	all = append(all, rw)
	check()

	// A clone and its source both fork after the clone.
	cl := cowClone(t, f1, "clone of fork 1")
	all = append(all, cl, cowApply(t, cl, "fork of clone", put(3, 555)), cowApply(t, f1, "fork 1.2", put(3, 666)))
	check()

	// A clone restructures the leaf — inserts until it splits, then
	// deletes — while its source's fork chain keeps appending to it.
	src := all[len(all)-1]
	str := cowClone(t, src, "restructured clone")
	all = append(all, str)
	for i := 0; i < 6; i++ {
		ops := make([]cpubtree.Op[K], 128)
		for j := range ops {
			if i < 4 {
				ops[j] = cpubtree.Op[K]{Key: fresh(8 + 128*i + j), Value: K(1000*i + j)}
			} else {
				ops[j] = cpubtree.Op[K]{Key: fresh(8 + 128*(i-4) + j), Delete: true}
			}
		}
		if _, err := str.tree.Update(ops, Synchronized); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Delete {
				delete(str.model, op.Key)
			} else {
				str.model[op.Key] = op.Value
			}
		}
		src = cowApply(t, src, fmt.Sprintf("source fork %d", i), put(4, K(900+i)))
		all = append(all, src)
		check()
	}
	if str.tree.Stats().LeafBytes <= tr.Stats().LeafBytes {
		t.Fatal("the clone never split the leaf")
	}
}

// TestConcurrentSharesOfOneTree forks and clones one tree from several
// goroutines at once, each successor then writing its own key into the
// same leaf, while another goroutine writes the tree's image: whichever
// successor took the append right, every tree must read exactly its own
// history, and the image must not change.
func TestConcurrentSharesOfOneTree(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 5000, 3)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	base := cowTree[uint64]{name: "base", tree: tr, model: make(map[uint64]uint64, len(pairs))}
	for _, p := range pairs {
		base.model[p.Key] = p.Value
	}
	lo := pairs[len(pairs)/2].Key
	const workers = 6
	var probes []uint64
	for i := range workers {
		probes = append(probes, lo+1+uint64(i))
	}
	var img bytes.Buffer
	if _, err := tr.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	out := make([]cowTree[uint64], workers)
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 4 {
			var again bytes.Buffer
			if _, err := tr.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), img.Bytes()) {
				errs[workers] = fmt.Errorf("the image changed while successors wrote (err %v)", err)
				return
			}
		}
	}()
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := []cpubtree.Op[uint64]{{Key: probes[i], Value: uint64(100 + i)}}
			name := fmt.Sprintf("successor %d", i)
			var next *Tree[uint64]
			if i%2 == 0 {
				var plan cpubtree.DeltaPlan[uint64]
				fork, _, ok := base.tree.ApplyDelta(ops, &plan)
				if !ok {
					errs[i] = fmt.Errorf("%s: ApplyDelta rejected", name)
					return
				}
				next = fork
			} else {
				cl, err := base.tree.Clone()
				if err == nil {
					_, err = cl.Update(ops, Synchronized)
				}
				if err != nil {
					errs[i] = err
					return
				}
				next = cl
			}
			model := maps.Clone(base.model)
			model[probes[i]] = uint64(100 + i)
			out[i] = cowTree[uint64]{name: name, tree: next, model: model}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range append(out, base) {
		checkCowTree(t, c, probes)
	}
}

// TestInPlaceWriteCostIsPerBatch pins the cost of a one-op in-place
// write to the batch, not the tree: ApplyDelta allocates the same bytes,
// within one small constant, at 2^14 and 2^20 pairs. The fork copies the
// leaf-record page table (8 bytes per 64 leaves) and the record page of
// the leaf it writes; before copy-on-write leaves it copied every
// leaf's metadata and recomputed the cost model by walking every inner
// node (about 9 KiB and 175 KiB).
func TestInPlaceWriteCostIsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const slack = 2 << 10
	var got [2]uint64
	for i, n := range []int{1 << 14, 1 << 20} {
		pairs := workload.Dataset[uint64](workload.Uniform, n, 17)
		tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
		if err != nil {
			t.Fatal(err)
		}
		var plan cpubtree.DeltaPlan[uint64]
		cur := tr
		w := 0
		write := func() {
			// Each write lands in another leaf, far from the last.
			op := []cpubtree.Op[uint64]{{Key: pairs[(w*n/64)%n].Key + 1, Value: uint64(w)}}
			fork, _, ok := cur.ApplyDelta(op, &plan)
			if !ok {
				t.Fatal("ApplyDelta rejected a one-op batch")
			}
			cur = fork
			w++
		}
		write() // the first write sizes the plan's scratch
		got[i] = math.MaxUint64
		for r := 0; r < 5; r++ { // the least of five: other goroutines allocate too
			got[i] = min(got[i], allocatedBytes(func() {
				for j := 0; j < 8; j++ {
					write()
				}
			})/8)
		}
		tr.Close()
	}
	if got[1] > got[0]+slack {
		t.Fatalf("one-op ApplyDelta allocates %d bytes at 2^14 pairs and %d at 2^20, want within %d", got[0], got[1], slack)
	}
	t.Logf("one-op ApplyDelta: %d bytes at 2^14 pairs, %d at 2^20", got[0], got[1])
}

// TestClonePathWriteCopiesNoLeafData pins what a clone-path write
// copies at 2^20 pairs: Clone and a one-op synchronised Update allocate
// at most 1 MiB, because the clone shares every leaf and every
// last-level page, on the host and in the device replica, and the
// update copies the leaf it rewrites and that leaf's node page, twice.
// The rest is the upper pool and its replica, the metadata, the leaf
// records and the page tables. Before copy-on-write leaves the same
// write allocated 1.55 leaf pools (28.4 MiB); before paged last-level
// pools, 10.9 MB.
func TestClonePathWriteCopiesNoLeafData(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n = 1 << 20
	pairs := workload.Dataset[uint64](workload.Uniform, n, 17)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	leafPool := uint64(tr.Stats().LeafBytes)
	op := []cpubtree.Op[uint64]{{Key: pairs[n/3].Key + 1, Value: 1}}
	var cl *Tree[uint64]
	got := allocatedBytes(func() {
		if cl, err = tr.Clone(); err != nil {
			t.Fatal(err)
		}
		if _, err = cl.Update(op, Synchronized); err != nil {
			t.Fatal(err)
		}
	})
	defer cl.Close()
	if got > 1<<20 {
		t.Fatalf("clone-path write allocated %d bytes, want at most 1 MiB", got)
	}
	if v, ok := cl.Lookup(op[0].Key); !ok || v != 1 {
		t.Fatalf("clone lost the write: (%d, %v)", v, ok)
	}
	if _, ok := tr.Lookup(op[0].Key); ok {
		t.Fatal("the source sees its clone's write")
	}
	t.Logf("clone-path write: %d bytes, %.2f of the %d-byte leaf pool", got, float64(got)/float64(leafPool), leafPool)
}

// TestDeltaCostIsMemoised checks the in-place write's memoised virtual
// cost against a fresh deltaPerOpCost along a fork chain, on the forks
// of a clone and on the forks of a tree that split: the fork's HostTime
// must be bit-identical to the unmemoised model's.
func TestDeltaCostIsMemoised(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<14, 29)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
	if err != nil {
		t.Fatal(err)
	}
	var plan cpubtree.DeltaPlan[uint64]
	chain := func(name string, cur *Tree[uint64], n int) *Tree[uint64] {
		t.Helper()
		for i := 0; i < n; i++ {
			ops := []cpubtree.Op[uint64]{{Key: pairs[(i*389)%len(pairs)].Key, Value: uint64(i)}}
			fresh := cur.deltaPerOpCost()
			fork, stats, ok := cur.ApplyDelta(ops, &plan)
			if !ok {
				t.Fatalf("%s %d: ApplyDelta rejected", name, i)
			}
			if fork.deltaCost != fresh || stats.HostTime != fresh {
				t.Fatalf("%s %d: memo %v, HostTime %v, fresh model %v", name, i, fork.deltaCost, stats.HostTime, fresh)
			}
			cur = fork
		}
		return cur
	}
	cur := chain("fork", tr, 4)
	cl, err := cur.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if cl.deltaCost != 0 {
		t.Fatalf("a clone inherited the memo %v", cl.deltaCost)
	}
	chain("fork of clone", cl, 4)

	// Split leaf 0 with 64 inserts: the leaf count changes the model.
	ops := make([]cpubtree.Op[uint64], 64)
	for i := range ops {
		ops[i] = cpubtree.Op[uint64]{Key: pairs[0].Key + 1 + uint64(i), Value: 1}
	}
	leaves := cl.Stats().LeafBytes
	if _, err := cl.Update(ops, Synchronized); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().LeafBytes == leaves {
		t.Fatal("the inserts did not split a leaf")
	}
	chain("fork after a split", cl, 4)
}

// allocatedBytes returns the bytes f allocates on the heap.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
