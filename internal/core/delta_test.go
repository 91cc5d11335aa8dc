package core

import (
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

// TestApplyDeltaChainAndCloneCompacts checks that forks chain (each new
// epoch forks the previous one) and that Clone() of a delta-bearing
// fork compacts back to a private tree that accepts structural updates.
func TestApplyDeltaChainAndCloneCompacts(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 40000, 13)
	tr, err := Build(pairs, Options{Variant: Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	cur := tr
	var plan cpubtree.DeltaPlan[uint64]
	for round := 0; round < 4; round++ {
		ops := make([]cpubtree.Op[uint64], 32)
		for i := range ops {
			ops[i] = cpubtree.Op[uint64]{Key: pairs[(round*997+i*61)%len(pairs)].Key, Value: uint64(round*1000 + i)}
		}
		fork, stats, ok := cur.ApplyDelta(ops, &plan)
		if !ok {
			t.Fatalf("round %d: ApplyDelta rejected", round)
		}
		if !stats.InPlace {
			t.Fatalf("round %d: not in-place", round)
		}
		if cur != tr {
			cur.Close()
		}
		cur = fork
	}

	nodes, bytes := cur.CloneFootprint()
	if nodes <= 0 || bytes <= 0 {
		t.Fatalf("CloneFootprint = (%d, %d)", nodes, bytes)
	}

	clone, err := cur.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.DeltaLeaves() != 0 {
		t.Fatalf("clone still carries %d delta leaves", clone.DeltaLeaves())
	}
	// Structural update on the compacted clone must work (would panic on
	// the shared-pool fork).
	if _, err := clone.Update([]cpubtree.Op[uint64]{{Key: 1, Value: 2}}, AsyncSingle); err != nil {
		t.Fatalf("Update on compacted clone: %v", err)
	}
	clone.Close()
	if cur != tr {
		cur.Close()
	}
}
