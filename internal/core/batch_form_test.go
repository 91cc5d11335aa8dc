package core

import (
	"fmt"
	"slices"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// Every regular-tree write path applies a batch's normal form: sorted by
// key, one op per key (the batch's last), no PUT of the reserved MAX
// key. These tests drive each path with batches that are out of that
// form and compare the tree with a sequential map model.

// writePath is one way a write batch reaches a regular tree. apply
// returns the tree holding the result, closing tr if it replaced it.
type writePath struct {
	name  string
	apply func(tr *Tree[uint64], ops []cpubtree.Op[uint64], plan *cpubtree.DeltaPlan[uint64]) (*Tree[uint64], UpdateStats, error)
}

// writePaths lists the four update methods, the GPU-assisted update, and
// the serving layer's in-place delta with its clone fallback.
func writePaths() []writePath {
	var paths []writePath
	for _, m := range []UpdateMethod{AsyncParallel, AsyncSingle, Synchronized, SynchronizedMT} {
		paths = append(paths, writePath{m.String(), func(tr *Tree[uint64], ops []cpubtree.Op[uint64], _ *cpubtree.DeltaPlan[uint64]) (*Tree[uint64], UpdateStats, error) {
			st, err := tr.Update(ops, m)
			return tr, st, err
		}})
	}
	return append(paths,
		writePath{"gpu-assisted", func(tr *Tree[uint64], ops []cpubtree.Op[uint64], _ *cpubtree.DeltaPlan[uint64]) (*Tree[uint64], UpdateStats, error) {
			st, err := tr.UpdateGPUAssisted(ops)
			return tr, st, err
		}},
		writePath{"delta", func(tr *Tree[uint64], ops []cpubtree.Op[uint64], plan *cpubtree.DeltaPlan[uint64]) (*Tree[uint64], UpdateStats, error) {
			if fork, st, ok := tr.ApplyDelta(ops, plan); ok {
				tr.Close()
				return fork, st, nil
			}
			clone, err := tr.Clone()
			if err != nil {
				return tr, UpdateStats{}, err
			}
			tr.Close()
			st, err := clone.Update(ops, AsyncParallel)
			return clone, st, err
		}},
	)
}

// modelApply applies ops to the map model in batch order and returns the
// counts the normal form implies: each distinct key's last op is applied
// once, and a DEL of an absent key (MAX included) is not found.
func modelApply(model map[uint64]uint64, ops []cpubtree.Op[uint64]) (applied, notFound int) {
	maxK := keys.Max[uint64]()
	last := make(map[uint64]cpubtree.Op[uint64], len(ops))
	for _, op := range ops {
		last[op.Key] = op
	}
	for k, op := range last {
		_, had := model[k]
		switch {
		case op.Delete && had:
			applied++
			delete(model, k)
		case op.Delete:
			notFound++
		case k != maxK:
			applied++
			model[k] = op.Value
		}
	}
	return applied, notFound
}

// checkModel compares tr with the model: stats, pair count, every
// stored pair, and the device replica.
func checkModel(t *testing.T, what string, tr *Tree[uint64], model map[uint64]uint64, st UpdateStats, ops []cpubtree.Op[uint64], applied, notFound int) {
	t.Helper()
	if st.Ops != len(ops) || st.Applied != applied || st.NotFound != notFound {
		t.Fatalf("%s: stats Ops/Applied/NotFound = %d/%d/%d, want %d/%d/%d",
			what, st.Ops, st.Applied, st.NotFound, len(ops), applied, notFound)
	}
	if tr.NumPairs() != len(model) {
		t.Fatalf("%s: NumPairs %d, model %d", what, tr.NumPairs(), len(model))
	}
	got := tr.RangeQuery(0, len(model)+2, nil)
	if len(got) != len(model) {
		t.Fatalf("%s: scan holds %d pairs, model %d", what, len(got), len(model))
	}
	for _, p := range got {
		if v, ok := model[p.Key]; !ok || v != p.Value {
			t.Fatalf("%s: stored (%d,%d), model (%d,%v)", what, p.Key, p.Value, v, ok)
		}
	}
	if err := tr.VerifyReplica(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// hotBatch draws n ops over a few hot keys, some stored and some not, a
// quarter of them deletes.
func hotBatch(r *workload.RNG, pairs []keys.Pair[uint64], hot, n int) []cpubtree.Op[uint64] {
	ks := make([]uint64, hot)
	for i := range ks {
		ks[i] = pairs[r.Intn(len(pairs))].Key + uint64(r.Intn(2))
	}
	ops := make([]cpubtree.Op[uint64], n)
	for i := range ops {
		ops[i] = cpubtree.Op[uint64]{Key: ks[r.Intn(hot)], Value: r.Uint64() >> 1, Delete: r.Intn(4) == 0}
	}
	return ops
}

// batchInput is one starting dataset and the batches applied to it in
// turn.
type batchInput struct {
	name    string
	pairs   []keys.Pair[uint64]
	batches [][]cpubtree.Op[uint64]
}

func batchInputs() []batchInput {
	// Eight hot keys written 400 times, an eighth of them deletes: the
	// batch on which sorting with an unstable sort once lost the order.
	pairs := workload.Dataset[uint64](workload.Uniform, 4096, 3)
	r := workload.NewRNG(11)
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = pairs[r.Intn(len(pairs))].Key
	}
	ops := make([]cpubtree.Op[uint64], 400)
	for i := range ops {
		ops[i] = cpubtree.Op[uint64]{Key: hot[r.Intn(len(hot))], Value: r.Uint64() >> 1, Delete: r.Intn(8) == 0}
	}
	in := []batchInput{{"same-key-order", pairs, [][]cpubtree.Op[uint64]{ops}}}

	for seed := uint64(1); seed <= 8; seed++ {
		pairs := workload.Dataset[uint64](workload.Uniform, 5000, seed)
		r := workload.NewRNG(seed + 100)
		var batches [][]cpubtree.Op[uint64]
		for _, hot := range []int{2, 4, 8} {
			batches = append(batches, hotBatch(r, pairs, hot, 1000))
		}
		in = append(in, batchInput{fmt.Sprintf("hot-seed%d", seed), pairs, batches})
	}
	return in
}

// TestUpdateMethodsMatchMapModel: every write path leaves a regular tree
// equal to a sequential map model after batches that write a few keys
// many times, on gapped and on full leaves. The contents must not depend
// on the method or on how the parallel method's workers interleave.
func TestUpdateMethodsMatchMapModel(t *testing.T) {
	inputs := batchInputs()
	for _, fill := range []float64{0.8, 1} {
		for _, path := range writePaths() {
			t.Run(fmt.Sprintf("fill=%v/%s", fill, path.name), func(t *testing.T) {
				var inPlace, cloned int
				for _, in := range inputs {
					tr, err := Build(in.pairs, Options{Variant: Regular, LeafFill: fill})
					if err != nil {
						t.Fatal(err)
					}
					model := make(map[uint64]uint64, len(in.pairs))
					for _, p := range in.pairs {
						model[p.Key] = p.Value
					}
					var plan cpubtree.DeltaPlan[uint64]
					for i, ops := range in.batches {
						caller := slices.Clone(ops)
						var st UpdateStats
						tr, st, err = path.apply(tr, ops, &plan)
						if err != nil {
							t.Fatalf("%s batch %d: %v", in.name, i, err)
						}
						if !slices.Equal(ops, caller) {
							t.Fatalf("%s batch %d: the caller's ops were modified", in.name, i)
						}
						applied, notFound := modelApply(model, ops)
						checkModel(t, fmt.Sprintf("%s batch %d", in.name, i), tr, model, st, ops, applied, notFound)
						if st.InPlace {
							inPlace++
						} else {
							cloned++
						}
					}
					tr.Close()
				}
				// The delta path must have run in place on gapped leaves and
				// fallen back to the clone on full ones.
				if path.name == "delta" && (fill < 1 && inPlace == 0 || fill == 1 && inPlace != 0) {
					t.Fatalf("delta path: %d in place, %d cloned at fill %v", inPlace, cloned, fill)
				}
			})
		}
	}
}

// TestSentinelKeyNeverStored: no write path stores the reserved MAX key.
// A PUT of MAX is dropped from the batch; a DEL of MAX is not found.
func TestSentinelKeyNeverStored(t *testing.T) {
	maxK := keys.Max[uint64]()
	pairs := workload.Dataset[uint64](workload.Uniform, 5000, 42)
	for _, fill := range []float64{0.8, 1} {
		for _, path := range writePaths() {
			for _, del := range []bool{false, true} {
				kind := "put"
				if del {
					kind = "del"
				}
				name := fmt.Sprintf("fill=%v/%s/%s", fill, path.name, kind)
				t.Run(name, func(t *testing.T) {
					tr, err := Build(pairs, Options{Variant: Regular, LeafFill: fill})
					if err != nil {
						t.Fatal(err)
					}
					model := make(map[uint64]uint64, len(pairs))
					for _, p := range pairs {
						model[p.Key] = p.Value
					}
					ops := []cpubtree.Op[uint64]{{Key: maxK, Value: 7, Delete: del}}
					var plan cpubtree.DeltaPlan[uint64]
					var st UpdateStats
					tr, st, err = path.apply(tr, ops, &plan)
					if err != nil {
						t.Fatal(err)
					}
					defer tr.Close()
					if v, ok := tr.Lookup(maxK); ok {
						t.Fatalf("Lookup(MAX) = (%d, true)", v)
					}
					applied, notFound := modelApply(model, ops)
					checkModel(t, name, tr, model, st, ops, applied, notFound)
				})
			}
		}
	}
}
