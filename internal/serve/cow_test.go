package serve

import (
	"math/rand"
	"testing"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/workload"
)

// TestSingleOpStreamClonesStayBounded drives a seeded stream of 100 000
// uniform single-op writes — three tenths fresh-key inserts, four tenths
// overwrites and three tenths deletes of present keys, so the tree keeps
// its size — through Server.Update on a 2^14-pair gapped tree, the shape
// of a long-running hbserve. The server must end equal to a map model,
// and its count of clone fallbacks must stay within twice the count of
// the eager policy, under which every clone compacted every delta
// region: 452 on this stream. Compacting at clone time only the delta
// regions at least half full took 470. Compacting only the leaf that
// overflowed took 3533: once most leaves carry deltas, about one write
// in 30 overflows a gap.
func TestSingleOpStreamClonesStayBounded(t *testing.T) {
	const (
		n       = 1 << 14
		stream  = 100_000
		eager   = 452 // clone fallbacks of the eager policy on this stream
		maxFall = 2 * eager
	)
	pairs := workload.Dataset[uint64](workload.Uniform, n, 5)
	tree, err := core.Build(pairs, core.Options{Variant: core.Regular, LeafFill: 0.875, BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tree)
	defer srv.Close()

	model := make(map[uint64]uint64, n+stream)
	present := make([]uint64, 0, n+stream)
	for _, p := range pairs {
		model[p.Key] = p.Value
		present = append(present, p.Key)
	}
	rng := rand.New(rand.NewSource(23))
	op := make([]cpubtree.Op[uint64], 1)
	for i := 0; i < stream; i++ {
		switch r := rng.Intn(10); {
		case r < 3 || len(present) == 0: // insert a fresh uniform key
			k := rng.Uint64() >> 1 << 1 // even: never the reserved MAX
			op[0] = cpubtree.Op[uint64]{Key: k, Value: uint64(i)}
			if _, ok := model[k]; !ok {
				present = append(present, k)
			}
			model[k] = uint64(i)
		case r < 7: // overwrite a present key
			k := present[rng.Intn(len(present))]
			op[0] = cpubtree.Op[uint64]{Key: k, Value: uint64(i)}
			model[k] = uint64(i)
		default: // delete a present key
			j := rng.Intn(len(present))
			k := present[j]
			present[j] = present[len(present)-1]
			present = present[:len(present)-1]
			op[0] = cpubtree.Op[uint64]{Key: k, Delete: true}
			delete(model, k)
		}
		if _, err := srv.Update(op, core.Synchronized); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	if got := srv.NumPairs(); got != len(model) {
		t.Fatalf("NumPairs = %d, model holds %d", got, len(model))
	}
	scan := srv.Scan(0, len(model)+1)
	if len(scan) != len(model) {
		t.Fatalf("scan returned %d pairs, model holds %d", len(scan), len(model))
	}
	for i, p := range scan {
		if v, ok := model[p.Key]; !ok || v != p.Value {
			t.Fatalf("scan[%d] = %v, model (%d, %v)", i, p, v, ok)
		}
	}
	m := srv.Metrics()
	if m.InPlaceApplied+m.CloneFallbacks != stream {
		t.Fatalf("in place %d + clone fallbacks %d != %d writes", m.InPlaceApplied, m.CloneFallbacks, stream)
	}
	if m.CloneFallbacks > maxFall {
		t.Fatalf("%d clone fallbacks in %d writes, want at most %d (twice the eager policy's %d)",
			m.CloneFallbacks, stream, maxFall, eager)
	}
	t.Logf("%d writes: %d in place, %d clone fallbacks, %d bytes cloned",
		stream, m.InPlaceApplied, m.CloneFallbacks, m.ClonedBytes)
}
