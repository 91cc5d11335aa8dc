package hbtree_test

import (
	"sort"
	"strings"
	"testing"

	"hbtree"
)

// TestGeneratePairsNonPositive: zero or a negative count is an empty
// dataset, not a panic.
func TestGeneratePairsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if got := hbtree.GeneratePairs[uint64](n, 42); got == nil || len(got) != 0 {
			t.Errorf("GeneratePairs(%d) = %v, want an empty slice", n, got)
		}
		if got := hbtree.GeneratePairs[uint32](n, 42); got == nil || len(got) != 0 {
			t.Errorf("GeneratePairs[uint32](%d) = %v, want an empty slice", n, got)
		}
	}
}

func TestPublicAPIQuickstart(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<16, 42)
	if !sort.SliceIsSorted(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key }) {
		t.Fatal("GeneratePairs not sorted")
	}
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	qs := hbtree.ShuffledQueries(pairs, 1<<15, 7)
	vals, found, stats, err := tree.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if !found[i] || vals[i] != hbtree.ValueFor(q) {
			t.Fatalf("lookup %d failed", i)
		}
	}
	if stats.ThroughputQPS <= 0 {
		t.Fatal("no throughput reported")
	}
}

func TestPublicAPIVariantsAndWidths(t *testing.T) {
	p64 := hbtree.GeneratePairs[uint64](1<<14, 1)
	p32 := hbtree.GeneratePairs[uint32](1<<14, 2)
	for _, v := range []hbtree.Variant{hbtree.Implicit, hbtree.Regular} {
		t64, err := hbtree.New(p64, hbtree.Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := t64.Lookup(p64[0].Key); !ok || got != p64[0].Value {
			t.Fatalf("%v 64-bit lookup failed", v)
		}
		t64.Close()
		t32, err := hbtree.New(p32, hbtree.Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := t32.Lookup(p32[0].Key); !ok || got != p32[0].Value {
			t.Fatalf("%v 32-bit lookup failed", v)
		}
		t32.Close()
	}
}

func TestPublicAPIUpdate(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<14, 3)
	tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, LeafFill: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	ops := []hbtree.Op[uint64]{
		{Key: 424242, Value: 7},
		{Key: pairs[5].Key, Delete: true},
	}
	st, err := tree.Update(ops, hbtree.Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 2 {
		t.Fatalf("applied %d", st.Applied)
	}
	if v, ok := tree.Lookup(424242); !ok || v != 7 {
		t.Fatal("inserted key missing")
	}
	if _, ok := tree.Lookup(pairs[5].Key); ok {
		t.Fatal("deleted key still present")
	}
	if err := tree.VerifyReplica(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMachines(t *testing.T) {
	m1, m2 := hbtree.MachineM1(), hbtree.MachineM2()
	if m1.Name != "M1" || m2.Name != "M2" {
		t.Fatal("machine names wrong")
	}
	if m1.GPU.MemBWBytes <= m2.GPU.MemBWBytes {
		t.Fatal("M1's GPU should have more bandwidth")
	}
	pairs := hbtree.GeneratePairs[uint64](1<<14, 4)
	tree, err := hbtree.New(pairs, hbtree.Options{Machine: m2, LoadBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	b := tree.Discover()
	if b.R < 0 || b.R > 1 {
		t.Fatalf("bad balance %+v", b)
	}
}

func TestNewFromUnsorted(t *testing.T) {
	pairs := []hbtree.Pair[uint64]{
		{Key: 30, Value: 3}, {Key: 10, Value: 1}, {Key: 20, Value: 2},
		{Key: 10, Value: 11}, // duplicate: last write wins
	}
	tree, err := hbtree.NewFromUnsorted(pairs, hbtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.NumPairs() != 3 {
		t.Fatalf("NumPairs = %d", tree.NumPairs())
	}
	if v, ok := tree.Lookup(10); !ok || v != 11 {
		t.Fatalf("duplicate resolution wrong: (%d,%v)", v, ok)
	}
	if v, ok := tree.Lookup(30); !ok || v != 3 {
		t.Fatalf("Lookup(30) = (%d,%v)", v, ok)
	}
}

func TestDescribeAndCursor(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<12, 3)
	tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	desc := tree.Describe()
	for _, want := range []string{"HB+-tree", "regular", "I-segment", "L-segment", "M1"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %q:\n%s", want, desc)
		}
	}
	// Cursor over the public API.
	cur := tree.Seek(pairs[100].Key)
	for i := 0; i < 50; i++ {
		p, ok := cur.Next()
		if !ok || p != pairs[100+i] {
			t.Fatalf("cursor at %d = (%+v,%v)", i, p, ok)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<18, 5)
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	qs := hbtree.ShuffledQueries(pairs, 1<<18, 7) // 16 buckets
	_, _, stats, err := tree.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LatencyP50 <= 0 || stats.LatencyP99 < stats.LatencyP95 || stats.LatencyP95 < stats.LatencyP50 {
		t.Fatalf("percentiles inconsistent: %+v", stats)
	}
}
