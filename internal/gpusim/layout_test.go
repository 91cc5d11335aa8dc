package gpusim

import (
	"sort"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// TestUniformDescriptorOracle is the refactor's compatibility
// invariant: a descriptor whose Levels table is the materialised
// uniform geometry must behave byte- and count-identically to the
// historical nil-Levels descriptor — same leaf outputs, same
// transaction totals (n × Height), same per-level counts — on both the
// per-query and the sorted shared-descent kernels.
func TestUniformDescriptorOracle(t *testing.T) {
	tr, desc, pairs := buildImplicitHB(t, 30000)
	inner, _, _, _ := tr.InnerArray()
	qs := workload.SearchInput(pairs, 6000, 17)

	explicit := desc
	explicit.Levels = desc.Geom()
	if explicit.TransPerQuery(0) != int64(desc.Height) {
		t.Fatalf("uniform Levels table costs %d trans/query, want Height %d",
			explicit.TransPerQuery(0), desc.Height)
	}

	// Per-query kernel: identical outputs and transaction counts.
	outNil := make([]int32, len(qs))
	outExp := make([]int32, len(qs))
	transNil, err := ImplicitSearchKernel(dev(), inner, desc, qs, outNil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	transExp, err := ImplicitSearchKernel(dev(), inner, explicit, qs, outExp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if transNil != transExp || transNil != int64(len(qs))*int64(desc.Height) {
		t.Fatalf("transaction counts diverge: nil %d, explicit %d, want %d",
			transNil, transExp, int64(len(qs))*int64(desc.Height))
	}
	for i := range qs {
		if outNil[i] != outExp[i] {
			t.Fatalf("query %d: nil-Levels leaf %d != explicit-Levels leaf %d", i, outNil[i], outExp[i])
		}
	}

	// Sorted shared-descent kernel: same invariant, plus identical
	// per-level transaction histograms.
	sq := append([]uint64(nil), qs...)
	sort.Slice(sq, func(i, j int) bool { return sq[i] < sq[j] })
	lvlNil := make([]int64, desc.Height)
	lvlExp := make([]int64, desc.Height)
	sNil := make([]int32, len(sq))
	sExp := make([]int32, len(sq))
	stNil, err := ImplicitSearchKernelSorted(dev(), inner, desc, sq, sNil, lvlNil)
	if err != nil {
		t.Fatal(err)
	}
	stExp, err := ImplicitSearchKernelSorted(dev(), inner, explicit, sq, sExp, lvlExp)
	if err != nil {
		t.Fatal(err)
	}
	if stNil != stExp {
		t.Fatalf("sorted transaction counts diverge: nil %d, explicit %d", stNil, stExp)
	}
	for l := range lvlNil {
		if lvlNil[l] != lvlExp[l] {
			t.Fatalf("level %d transaction count diverges: nil %d, explicit %d", l, lvlNil[l], lvlExp[l])
		}
	}
	for i := range sq {
		if sNil[i] != sExp[i] {
			t.Fatalf("sorted query %d: nil-Levels leaf %d != explicit-Levels leaf %d", i, sNil[i], sExp[i])
		}
	}
}

// buildTunedHB builds an implicit tree with widened root levels and the
// matching non-uniform descriptor, the way internal/core derives it
// from cpubtree.LevelGeometry.
func buildTunedHB(t *testing.T, n int, rootWidths []int) (*cpubtree.ImplicitTree[uint64], ImplicitDesc, []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
	tr, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{Fanout: 8, RootWidths: rootWidths})
	if err != nil {
		t.Fatal(err)
	}
	if tr.UniformLayout() {
		t.Fatalf("RootWidths %v produced a uniform tree", rootWidths)
	}
	geom := tr.LevelGeometry()
	kpn := keys.PerLine[uint64]()
	levels := make([]LevelGeom, len(geom))
	for i, g := range geom {
		levels[i] = LevelGeom{Off: int32(g.Slot), Kpn: int32(g.Kpn), Fanout: int32(g.Fanout), Lines: int32(g.Kpn / kpn)}
	}
	desc := ImplicitDesc{Kpn: kpn, Fanout: 8, Height: tr.Height(), NumLeaves: tr.NumLeafLines(), Levels: levels}
	return tr, desc, pairs
}

// TestTunedDescriptorKernelMatchesHost drives both kernels with a
// genuinely non-uniform descriptor (32-slot root, packed below): leaf
// outputs must match the host traversal of the same tree, the
// per-query kernel must charge TransPerQuery (root = 4 lines, packed
// levels = 1), and the sorted kernel must agree with the unsorted one
// byte for byte while issuing fewer transactions on sorted input.
func TestTunedDescriptorKernelMatchesHost(t *testing.T) {
	tr, desc, pairs := buildTunedHB(t, 30000, []int{32})
	inner, _, _, _ := tr.InnerArray()
	if desc.Levels[0].Kpn != 32 || desc.Levels[0].Lines != 4 {
		t.Fatalf("root geometry not widened: %+v", desc.Levels[0])
	}
	perQuery := desc.TransPerQuery(0)
	if want := int64(4 + desc.Height - 1); perQuery != want {
		t.Fatalf("TransPerQuery = %d, want %d", perQuery, want)
	}

	qs := workload.SearchInput(pairs, 6000, 23)
	out := make([]int32, len(qs))
	trans, err := ImplicitSearchKernel(dev(), inner, desc, qs, out, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trans != int64(len(qs))*perQuery {
		t.Fatalf("transaction count %d, want %d", trans, int64(len(qs))*perQuery)
	}
	for i, q := range qs {
		if int(out[i]) != tr.SearchInner(q) {
			t.Fatalf("tuned kernel leaf %d != host %d for key %d", out[i], tr.SearchInner(q), q)
		}
	}

	// Keep the sorted batch under the kernel's fan-out threshold so it
	// descends as one contiguous run — the root-probed-exactly-once
	// assertion below only holds when chunking doesn't split the batch.
	sq := append([]uint64(nil), qs[:512]...)
	sort.Slice(sq, func(i, j int) bool { return sq[i] < sq[j] })
	want := make([]int32, len(sq))
	if _, err := ImplicitSearchKernel(dev(), inner, desc, sq, want, 0, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]int32, len(sq))
	lvl := make([]int64, desc.Height)
	strans, err := ImplicitSearchKernelSorted(dev(), inner, desc, sq, got, lvl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sq {
		if got[i] != want[i] {
			t.Fatalf("sorted tuned kernel diverges at %d: %d != %d", i, got[i], want[i])
		}
	}
	if strans >= int64(len(sq))*perQuery {
		t.Fatalf("sorted descent shared nothing: %d trans for %d queries × %d", strans, len(sq), perQuery)
	}
	// The root is one node: a sorted batch probes it exactly once, for
	// its full line count, however many queries descend through it.
	if lvl[0] != int64(desc.Levels[0].Lines) {
		t.Fatalf("root level charged %d transactions, want %d (one probe of a %d-line node)",
			lvl[0], desc.Levels[0].Lines, desc.Levels[0].Lines)
	}
	var sum int64
	for _, v := range lvl {
		sum += v
	}
	if sum != strans {
		t.Fatalf("per-level counts sum to %d, kernel reported %d", sum, strans)
	}
}
