package core

import (
	"bytes"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/workload"
)

// TestApplyDeltaForkSharesDeviceReplica checks the in-place fast path
// end to end at the core layer: the fork answers post-batch values via
// the GPU-backed batch path with zero transfer (the device buffers are
// shared, not re-uploaded), the parent keeps its pre-batch epoch, and
// the refcounted buffers survive the parent's Close while the fork is
// still serving.
func TestApplyDeltaForkSharesDeviceReplica(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 60000, 11)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}

	ops := make([]cpubtree.Op[uint64], 0, 128)
	for i := 0; i < 96; i++ {
		ops = append(ops, cpubtree.Op[uint64]{Key: pairs[i*37].Key, Value: uint64(1e9 + i)})
	}
	for i := 0; i < 32; i++ {
		ops = append(ops, cpubtree.Op[uint64]{Key: pairs[i*53+7].Key, Delete: true})
	}

	var plan cpubtree.DeltaPlan[uint64]
	fork, stats, ok := tr.ApplyDelta(ops, &plan)
	if !ok {
		t.Fatalf("ApplyDelta rejected a small batch on a gapped tree")
	}
	if !stats.InPlace || stats.SyncTime != 0 || stats.Structural != 0 {
		t.Fatalf("in-place stats wrong: %+v", stats)
	}
	// One key repeats: its last op (a delete) is the one applied.
	final := make(map[uint64]cpubtree.Op[uint64], len(ops))
	for _, op := range ops {
		final[op.Key] = op
	}
	if stats.Ops != len(ops) || stats.Applied != len(final) {
		t.Fatalf("Ops/Applied = %d/%d, want %d/%d", stats.Ops, stats.Applied, len(ops), len(final))
	}
	if fork.DeltaLeaves() == 0 {
		t.Fatalf("fork carries no delta leaves")
	}

	if tr.bufShare == nil || tr.bufShare != fork.bufShare || tr.bufShare.refs.Load() != 2 {
		t.Fatalf("fork does not share the parent's device buffers")
	}

	// Parent epoch unchanged; Close it while the fork still serves.
	qs := make([]uint64, len(ops))
	for i, op := range ops {
		qs[i] = op.Key
	}
	vals, fnd, _, err := tr.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !fnd[i] || vals[i] != workload.ValueFor(qs[i]) {
			t.Fatalf("parent epoch moved: key %d -> (%d,%v)", qs[i], vals[i], fnd[i])
		}
	}
	tr.Close()

	// GPU-path batch lookup on the fork traverses the shared (still
	// live) replica and must see the batch's writes and deletes.
	vals, fnd, _, err = fork.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		op := final[q]
		switch {
		case op.Delete && fnd[i]:
			t.Fatalf("deleted key %d still found on fork", q)
		case !op.Delete && (!fnd[i] || vals[i] != op.Value):
			t.Fatalf("fork key %d: got (%d,%v), want (%d,true)", q, vals[i], fnd[i], op.Value)
		}
	}
	fork.Close()
}

// TestCloneCompactsHalfFullDeltaRegions checks that forks chain (each
// new epoch forks the previous one) and what Clone() of a delta-bearing
// fork compacts: the delta regions at least half full, and no others.
// A structural update compacts a leaf it touches, re-syncing its
// last-level node, and the clone's image is byte-identical to the image
// of the same history applied through clones only.
func TestCloneCompactsHalfFullDeltaRegions(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 40000, 13)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	oracle, err := tr.Clone() // the clone-only history
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// Four rounds of overwrites and inserts spread over the leaves, and
	// one round of 30 overwrites in leaf 100, whose 52-slot delta region
	// ends more than half full (a 0.8-full leaf holds 204 of 256 pairs).
	var rounds [][]cpubtree.Op[uint64]
	for round := 0; round < 4; round++ {
		ops := make([]cpubtree.Op[uint64], 32)
		for i := range ops {
			k := pairs[(round*997+i*61)%len(pairs)].Key
			ops[i] = cpubtree.Op[uint64]{Key: k + uint64(i%2), Value: uint64(round*1000 + i)}
		}
		rounds = append(rounds, ops)
	}
	hot := make([]cpubtree.Op[uint64], 30)
	for i := range hot {
		hot[i] = cpubtree.Op[uint64]{Key: pairs[20400+i].Key, Value: uint64(7000 + i)}
	}
	rounds = append(rounds, hot)

	cur := tr
	var plan cpubtree.DeltaPlan[uint64]
	for r, ops := range rounds {
		fork, stats, ok := cur.ApplyDelta(ops, &plan)
		if !ok || !stats.InPlace {
			t.Fatalf("round %d: ApplyDelta rejected", r)
		}
		if cur != tr {
			cur.Close()
		}
		cur = fork
		if _, err := oracle.Update(ops, AsyncSingle); err != nil {
			t.Fatal(err)
		}
	}
	defer cur.Close()

	if nodes, nb := cur.CloneFootprint(); nodes <= 0 || nb <= 0 {
		t.Fatalf("CloneFootprint = (%d, %d)", nodes, nb)
	}
	clone, err := cur.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	if got, want := clone.DeltaLeaves(), cur.DeltaLeaves()-1; got != want || got == 0 {
		t.Fatalf("clone carries %d delta leaves, want %d: all but the half-full one", got, want)
	}

	// A structural touch of a delta-bearing leaf compacts it: an
	// overwrite, which Update applies on the clone in place.
	touch := []cpubtree.Op[uint64]{{Key: rounds[0][0].Key, Value: 99}}
	before := clone.DeltaLeaves()
	if _, err := clone.Update(touch, Synchronized); err != nil {
		t.Fatalf("Update on the clone: %v", err)
	}
	if _, err := oracle.Update(touch, Synchronized); err != nil {
		t.Fatal(err)
	}
	if got := clone.DeltaLeaves(); got != before-1 {
		t.Fatalf("the touched leaf kept its deltas: %d delta leaves, want %d", got, before-1)
	}
	if err := clone.VerifyReplica(); err != nil {
		t.Fatalf("the compacted leaf's node was not re-synced: %v", err)
	}

	var got, want bytes.Buffer
	if _, err := clone.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the clone's image (%d bytes) differs from the clone-only history's (%d bytes)", got.Len(), want.Len())
	}
}

// TestInPlaceUpdateAfterForkKeepsForkReplica pins the fork's replica
// against in-place writes to its parent. A synchronised Update on a tree
// that ApplyDelta has forked syncs its dirty last-level nodes; the
// replica buffers are shared with the fork, so the parent must detach
// into a replica of its own first. Otherwise the fork's GPU path routes
// by the parent's new separators while its host path does not.
func TestInPlaceUpdateAfterForkKeepsForkReplica(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 5)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.875})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var plan cpubtree.DeltaPlan[uint64]
	fork, _, ok := tr.ApplyDelta([]cpubtree.Op[uint64]{{Key: pairs[7].Key, Value: 7}}, &plan)
	if !ok {
		t.Fatal("ApplyDelta rejected a one-op batch")
	}
	defer fork.Close()

	// Twenty inserts into big leaf 40 of the parent (224 pairs a leaf at
	// this fill), one batch each: none splits, so each syncs the leaf's
	// last-level node instead of re-mirroring.
	base := 40 * 224
	for i := 0; i < 20; i++ {
		k := pairs[base+i].Key + 1
		if _, err := tr.Update([]cpubtree.Op[uint64]{{Key: k, Value: k}}, Synchronized); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		x    *Tree[uint64]
	}{{"fork", fork}, {"parent", tr}} {
		name, x := c.name, c.x
		qs := make([]uint64, 0, 2048)
		for _, p := range pairs[base-1024 : base+1024] {
			qs = append(qs, p.Key, p.Key+1)
		}
		vals, fnd, _, err := x.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		for i, q := range qs {
			if v, f := x.Lookup(q); v != vals[i] || f != fnd[i] {
				bad++
			}
		}
		if bad > 0 {
			t.Fatalf("%s: %d of %d LookupBatch answers differ from Lookup", name, bad, len(qs))
		}
		if err := x.VerifyReplica(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if tr.bufShare == fork.bufShare {
		t.Fatal("the updated parent still shares the fork's replica buffers")
	}
}
