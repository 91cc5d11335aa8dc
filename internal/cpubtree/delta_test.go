package cpubtree

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"hbtree/internal/keys"
)

// Property suite for the gapped delta leaves (delta.go): an in-place
// planned apply must be observationally identical — lookups, ordered
// scans, range queries, serialized image — to the clone-and-swap
// oracle, over random op mixes of inserts, overwrites, deletes,
// duplicates and missing keys, for both key widths. The epoch contract
// is checked too: a fork's parent keeps answering with its exact
// pre-batch values.

func buildDeltaTree[K keys.Key](t *testing.T, n int, fill float64) (*RegularTree[K], []keys.Pair[K]) {
	t.Helper()
	pairs := make([]keys.Pair[K], n)
	for i := range pairs {
		pairs[i] = keys.Pair[K]{Key: K(10 + 10*i), Value: K(i + 1)}
	}
	tr, err := BuildRegular(pairs, Config{LeafFill: fill})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return tr, pairs
}

// normalForm returns ops in the write-batch normal form PlanDelta
// requires: sorted by key, the last op per key kept.
func normalForm[K keys.Key](ops []Op[K]) []Op[K] {
	out := slices.Clone(ops)
	slices.SortStableFunc(out, func(a, b Op[K]) int { return cmp.Compare(a.Key, b.Key) })
	n := 0
	for i, op := range out {
		if i+1 < len(out) && out[i+1].Key == op.Key {
			continue
		}
		out[n] = op
		n++
	}
	return out[:n]
}

// randomDeltaOps draws a batch biased to stay within gap capacity:
// overwrites and near-miss keys around the loaded range, with a
// delete/insert mix, and returns its normal form.
func randomDeltaOps[K keys.Key](rng *rand.Rand, pairs []keys.Pair[K], n int) []Op[K] {
	ops := make([]Op[K], n)
	for i := range ops {
		var k K
		switch rng.Intn(4) {
		case 0: // existing key (overwrite or delete hit)
			k = pairs[rng.Intn(len(pairs))].Key
		case 1: // missing key inside the range (insert or delete miss)
			k = pairs[rng.Intn(len(pairs))].Key + K(1+rng.Intn(9))
		case 2: // duplicate pressure: small hot set
			k = pairs[rng.Intn(8)].Key
		default: // below or above the loaded range
			if rng.Intn(2) == 0 {
				k = K(rng.Intn(10))
			} else {
				k = pairs[len(pairs)-1].Key + K(1+rng.Intn(50))
			}
		}
		ops[i] = Op[K]{Key: k, Value: K(rng.Intn(1 << 20)), Delete: rng.Intn(3) == 0}
	}
	return normalForm(ops)
}

// treeFingerprint collects every observable read surface of the tree.
func treeFingerprint[K keys.Key](t *RegularTree[K], probes []K) (lookups []K, found []bool, scan, rq []keys.Pair[K], n int) {
	lookups = make([]K, len(probes))
	found = make([]bool, len(probes))
	for i, q := range probes {
		lookups[i], found[i] = t.Lookup(q)
	}
	cur := t.Seek(0)
	for {
		p, ok := cur.Next()
		if !ok {
			break
		}
		scan = append(scan, p)
	}
	var mid K
	if len(scan) > 0 {
		mid = scan[len(scan)/2].Key
	}
	rq = t.RangeQuery(mid, len(scan)/2+3, nil)
	return lookups, found, scan, rq, t.NumPairs()
}

func comparePairSlices[K keys.Key](t *testing.T, what string, got, want []keys.Pair[K]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// runDeltaOracleRound applies one random batch and reports whether it
// ran in place (false: it took the clone fallback, which checks nothing).
func runDeltaOracleRound[K keys.Key](t *testing.T, tr *RegularTree[K], pairs []keys.Pair[K], rng *rand.Rand, batch int) (*RegularTree[K], bool) {
	t.Helper()
	ops := randomDeltaOps(rng, pairs, batch)

	var plan DeltaPlan[K]
	if !tr.PlanDelta(ops, &plan) {
		// Gap exhausted: the clone fallback is the covered path; compact
		// and retry the plan once on the fresh clone.
		tr = tr.Clone()
		if !tr.PlanDelta(ops, &plan) {
			cl := tr.Clone()
			cl.ApplyBatchSequential(ops)
			return cl, false
		}
	}

	oracle := tr.Clone()
	oracle.ApplyBatchSequential(ops)

	fork := tr.ForkDelta()
	res := fork.ApplyPlannedDelta(ops, &plan)
	if res.Structural != 0 {
		t.Fatalf("in-place apply reported structural change")
	}

	probes := make([]K, 0, 3*len(ops))
	maxK := keys.Max[K]()
	for _, op := range ops {
		for _, q := range []K{op.Key, op.Key + 1, op.Key - 1} {
			if q != maxK { // MAX is the reserved sentinel: lookups of it are undefined
				probes = append(probes, q)
			}
		}
	}
	for i := 0; i < 64; i++ {
		probes = append(probes, pairs[rng.Intn(len(pairs))].Key)
	}

	gl, gf, gs, gr, gn := treeFingerprint(fork, probes)
	wl, wf, ws, wr, wn := treeFingerprint(oracle, probes)
	for i := range probes {
		if gf[i] != wf[i] || (gf[i] && gl[i] != wl[i]) {
			t.Fatalf("lookup %v: (%v,%v), oracle (%v,%v)", probes[i], gl[i], gf[i], wl[i], wf[i])
		}
	}
	comparePairSlices(t, "scan", gs, ws)
	comparePairSlices(t, "range", gr, wr)
	if gn != wn {
		t.Fatalf("NumPairs %d, oracle %d", gn, wn)
	}

	// Compaction equivalence: a clone of the fork must serialize to the
	// same image as the oracle.
	var got, want bytes.Buffer
	if _, err := fork.WriteTo(&got); err != nil {
		t.Fatalf("fork WriteTo: %v", err)
	}
	if _, err := oracle.WriteTo(&want); err != nil {
		t.Fatalf("oracle WriteTo: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("compacted image differs from oracle image (%d vs %d bytes)", got.Len(), want.Len())
	}
	return fork, true
}

func testDeltaOracle[K keys.Key](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tr, pairs := buildDeltaTree[K](t, 3000, 0.8)

	// Pre-batch view preservation: fingerprint the parent, apply a chain
	// of in-place batches on forks, re-fingerprint the parent.
	probes := make([]K, 200)
	for i := range probes {
		probes[i] = pairs[rng.Intn(len(pairs))].Key + K(rng.Intn(3))
	}
	pl, pf, ps, pr, pn := treeFingerprint(tr, probes)

	cur := tr
	inPlace := 0
	for round := 0; round < 8; round++ {
		var ok bool
		cur, ok = runDeltaOracleRound(t, cur, pairs, rng, 64)
		if ok {
			inPlace++
		}
	}
	if inPlace == 0 {
		t.Fatalf("seed %d: no round ran in place", seed)
	}

	gl, gf, gs, gr, gn := treeFingerprint(tr, probes)
	for i := range probes {
		if gf[i] != pf[i] || gl[i] != pl[i] {
			t.Fatalf("parent epoch changed at probe %v after in-place applies", probes[i])
		}
	}
	comparePairSlices(t, "parent scan", gs, ps)
	comparePairSlices(t, "parent range", gr, pr)
	if gn != pn {
		t.Fatalf("parent NumPairs changed: %d -> %d", pn, gn)
	}
}

func TestDeltaApplyMatchesCloneOracleUint64(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		testDeltaOracle[uint64](t, seed)
	}
}

func TestDeltaApplyMatchesCloneOracleUint32(t *testing.T) {
	for seed := int64(100); seed <= 103; seed++ {
		testDeltaOracle[uint32](t, seed)
	}
}

// TestDeltaPlanRejectsOverflow pins the clone-fallback triggers: a
// batch overflowing a leaf's gap capacity, and a batch that would empty
// a leaf, must both fail the plan.
func TestDeltaPlanRejectsOverflow(t *testing.T) {
	tr, pairs := buildDeltaTree[uint64](t, 3000, 1.0) // full leaves: zero gap
	var plan DeltaPlan[uint64]
	ops := []Op[uint64]{{Key: pairs[0].Key + 1, Value: 7}}
	if tr.PlanDelta(ops, &plan) {
		t.Fatalf("plan accepted an insert into a gapless tree")
	}
	// Overwrites need a slot too.
	ops[0] = Op[uint64]{Key: pairs[0].Key, Value: 7}
	if tr.PlanDelta(ops, &plan) {
		t.Fatalf("plan accepted an overwrite into a gapless tree")
	}

	tr2, pairs2 := buildDeltaTree[uint64](t, 40, 0.5)
	// Delete every pair of the first leaf: would empty it.
	dels := make([]Op[uint64], 0, len(pairs2))
	for _, p := range pairs2 {
		dels = append(dels, Op[uint64]{Key: p.Key, Delete: true})
	}
	if tr2.PlanDelta(dels, &plan) {
		t.Fatalf("plan accepted emptying every leaf")
	}
	// Deleting one key of a multi-pair tree is fine.
	if !tr2.PlanDelta(dels[:1], &plan) {
		t.Fatalf("plan rejected a single in-gap delete")
	}

	// A batch out of the normal form — keys not strictly ascending, or an
	// insert of the reserved MAX key — fails the plan, so the caller's
	// clone path normalises it; a delete of MAX is in form (not found).
	k0, k1 := pairs2[0].Key, pairs2[1].Key
	maxK := keys.Max[uint64]()
	for _, ops := range [][]Op[uint64]{
		{{Key: k1, Value: 1}, {Key: k0, Value: 2}},
		{{Key: k0, Value: 1}, {Key: k0, Value: 2}},
		{{Key: k0, Value: 1}, {Key: maxK, Value: 2}},
	} {
		if tr2.PlanDelta(ops, &plan) {
			t.Fatalf("plan accepted out-of-form batch %v", ops)
		}
	}
	if !tr2.PlanDelta([]Op[uint64]{{Key: k0, Value: 1}, {Key: maxK, Delete: true}}, &plan) {
		t.Fatalf("plan rejected an in-form batch ending in a delete of MAX")
	}
}

// TestPlanDeltaAllocFree: with a reused plan, planning an in-form batch
// allocates nothing, whatever its size.
func TestPlanDeltaAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, pairs := buildDeltaTree[uint64](t, 20000, 0.8)
	var plan DeltaPlan[uint64]
	for _, n := range []int{1, 16, 256} {
		ops := make([]Op[uint64], n)
		for i := range ops {
			p := pairs[(i*len(pairs))/n+rng.Intn(len(pairs)/n)]
			ops[i] = Op[uint64]{Key: p.Key + uint64(rng.Intn(2)), Value: 1, Delete: rng.Intn(4) == 0}
		}
		if !tr.PlanDelta(ops, &plan) {
			t.Fatalf("%d ops: plan rejected", n)
		}
		if a := testing.AllocsPerRun(100, func() { tr.PlanDelta(ops, &plan) }); a != 0 {
			t.Fatalf("%d ops: PlanDelta allocates %.0f times per call, want 0", n, a)
		}
	}
}

// TestDeltaForkGuards pins the sharedPools discipline: structural
// mutation on a fork panics, and Clone() clears the guard.
func TestDeltaForkGuards(t *testing.T) {
	tr, _ := buildDeltaTree[uint64](t, 500, 0.8)
	fork := tr.ForkDelta()
	if !fork.Shared() {
		t.Fatalf("fork not marked shared")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Insert on a fork did not panic")
			}
		}()
		_, _ = fork.Insert(1, 1)
	}()
	cl := fork.Clone()
	if cl.Shared() {
		t.Fatalf("clone of fork still marked shared")
	}
	if _, err := cl.Insert(1, 1); err != nil {
		t.Fatalf("insert on clone: %v", err)
	}
}

// TestDeltaSerializeRoundTrip pins that a delta-bearing tree's image
// loads back to the same contents.
func TestDeltaSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr, pairs := buildDeltaTree[uint64](t, 2000, 0.8)
	ops := randomDeltaOps(rng, pairs, 48)
	var plan DeltaPlan[uint64]
	if !tr.PlanDelta(ops, &plan) {
		t.Fatalf("plan rejected a small batch on a gapped tree")
	}
	fork := tr.ForkDelta()
	fork.ApplyPlannedDelta(ops, &plan)

	var buf bytes.Buffer
	if _, err := fork.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := ReadRegular[uint64](bytes.NewReader(buf.Bytes()), Config{})
	if err != nil {
		t.Fatalf("ReadRegular: %v", err)
	}
	if back.NumPairs() != fork.NumPairs() {
		t.Fatalf("round trip NumPairs %d != %d", back.NumPairs(), fork.NumPairs())
	}
	cur, bcur := fork.Seek(0), back.Seek(0)
	for {
		p1, ok1 := cur.Next()
		p2, ok2 := bcur.Next()
		if ok1 != ok2 || p1 != p2 {
			t.Fatalf("round trip scan diverges: (%v,%v) vs (%v,%v)", p1, ok1, p2, ok2)
		}
		if !ok1 {
			break
		}
	}
}
