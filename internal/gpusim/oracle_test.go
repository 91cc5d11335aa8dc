package gpusim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"hbtree/internal/keys"
	"hbtree/internal/simd"
	"hbtree/internal/workload"
)

// warpSearch executes the parallel node search of Snippet 3 literally on
// one node line: every team thread publishes a flag, and the thread
// whose flag is set while its predecessor's is not owns the answer. The
// kernels compute the same answer with the host's node search
// (internal/simd); this emulation is the oracle the tests hold them to. It requires the node's last slot to be
// reachable (the HB+-tree pins trailing separators to MAX).
func warpSearch[K keys.Key](node []K, q K) int {
	if len(node) > MaxNodeWidth {
		panic(fmt.Sprintf("gpusim: node width %d exceeds MaxNodeWidth %d", len(node), MaxNodeWidth))
	}
	var flag [MaxNodeWidth + 1]bool // flag[0] is the implicit predecessor of thread 0
	for j, k := range node {
		flag[j+1] = q <= k // each team thread's comparison
	}
	res := len(node) - 1
	for j := range node {
		// Thread j owns the result iff its flag is set and thread j-1's
		// is not ("if r_t = 1 and r_{t-1} = 0").
		if flag[j+1] && !flag[j] {
			res = j
			break
		}
	}
	return res
}

// sortedNode returns a sorted node of width w drawn from r with keys in
// [0, span), so duplicates and queries equal to a key are common, and
// its last pad slots MAX (sortPad).
func sortedNode[K keys.Key](r *workload.RNG, w int, span uint64, pad int) []K {
	node := make([]K, w)
	for i := range node {
		node[i] = K(r.Uint64() % span)
	}
	return sortPad(node, pad)
}

// sortPad sorts node and sets its last pad slots to MAX, the HB+-tree's
// trailing separators and empty slots.
func sortPad[K keys.Key](node []K, pad int) []K {
	slices.Sort(node)
	for i := len(node) - min(pad, len(node)); i < len(node); i++ {
		node[i] = keys.Max[K]()
	}
	return node
}

// levelSearch is the implicit kernel's node search on node: the
// kernel body's level step, simd.DescendLevel, run for one query at a
// one-node level whose fanout is the node's width, so the query's node
// is loaded first and searched by the shape the step picks for the
// width (the hierarchical one for 8 and 16 slots, the count for the
// others).
func levelSearch[K keys.Key](node []K, q K) int {
	var idx [1]int32
	var loaded [1]K
	simd.DescendLevel(node, len(node), len(node), []K{q}, idx[:], loaded[:])
	return int(idx[0])
}

// checkRank fails t when the regular kernel's line search, or the
// implicit kernel's level step, and the Snippet 3 oracle disagree on q.
func checkRank[K keys.Key](t *testing.T, node []K, q K) {
	t.Helper()
	want := warpSearch(node, q)
	if got := min(simd.SearchHierarchical(node, q), len(node)-1); got != want {
		t.Fatalf("width %d: line search (%v, %d) = %d, warpSearch = %d", len(node), node, q, got, want)
	}
	if got := levelSearch(node, q); got != want {
		t.Fatalf("width %d: kernel level search (%v, %d) = %d, warpSearch = %d", len(node), node, q, got, want)
	}
}

// checkNodeQueries checks node against the oracle at queries below,
// equal to, between and above its keys, at 0 and at MAX.
func checkNodeQueries[K keys.Key](t *testing.T, node []K) {
	t.Helper()
	checkRank(t, node, 0)
	checkRank(t, node, keys.Max[K]())
	for _, k := range node {
		checkRank(t, node, k)
		if k > 0 {
			checkRank(t, node, k-1)
		}
		if k < keys.Max[K]() {
			checkRank(t, node, k+1)
		}
	}
}

// rankProperty checks the regular kernel's line search and the
// implicit kernel's level step against warpSearch on seeded sorted
// nodes of every width from 8 to MaxNodeWidth, with no MAX slot, a MAX
// last slot or a MAX-padded tail: queries drawn from the key range,
// below, equal to, between and above every key, and q = MAX. Widths 8
// and 16 are the one-line nodes searched hierarchically (uint64 and
// uint32).
func rankProperty[K keys.Key](t *testing.T, seed uint64) {
	r := workload.NewRNG(seed)
	for w := 8; w <= MaxNodeWidth; w++ {
		for iter := 0; iter < 200; iter++ {
			span := uint64(4 * w)
			pad := []int{0, 1, r.Intn(w + 1)}[iter%3]
			node := sortedNode[K](r, w, span, pad)
			checkRank(t, node, K(r.Uint64()%(span+8)))
			checkNodeQueries(t, node)
			checkRank(t, node, K(span)) // above every key but a MAX slot
		}
	}
}

func TestRankMatchesWarpSearch(t *testing.T) {
	rankProperty[uint64](t, 47)
	rankProperty[uint32](t, 48)
}

// fuzzNode returns a sorted node of width w with keys from data, and
// its last pad slots MAX (sortPad).
func fuzzNode[K keys.Key](w int, data []byte, pad int) []K {
	node := make([]K, w)
	for i := range node {
		if len(data) > 0 {
			node[i] = K(uint64(data[i%len(data)]) * uint64(i+1))
		}
	}
	return sortPad(node, pad)
}

// FuzzRankMatchesWarpSearch drives the line search, the level step and
// the oracle with arbitrary sorted nodes: width 8 + wsel mod 57, keys
// from data, the last pad mod (width+1) slots MAX (at least one with
// maxLast), q given, for both key widths; and the one-line nodes, 8
// slots of uint64 and 16 of uint32, from the same data at q and at
// queries around each of their keys.
func FuzzRankMatchesWarpSearch(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3}, uint64(4), true, uint8(0)) // q equals two keys
	f.Add(uint8(56), []byte{0xff, 0, 7}, ^uint64(0), false, uint8(0))
	f.Add(uint8(8), []byte{9}, uint64(1000), false, uint8(0))
	f.Add(uint8(0), []byte{5, 5, 5, 200}, uint64(6), false, uint8(3))
	f.Fuzz(func(t *testing.T, wsel uint8, data []byte, q uint64, maxLast bool, pad uint8) {
		w := 8 + int(wsel)%(MaxNodeWidth-7)
		p := int(pad) % (w + 1)
		if maxLast {
			p = max(p, 1)
		}
		checkRank(t, fuzzNode[uint64](w, data, p), q)
		checkRank(t, fuzzNode[uint32](w, data, p), uint32(q))
		n64 := fuzzNode[uint64](8, data, p%9)
		n32 := fuzzNode[uint32](16, data, p%17)
		checkRank(t, n64, q)
		checkRank(t, n32, uint32(q))
		checkNodeQueries(t, n64)
		checkNodeQueries(t, n32)
	})
}

// TestWarpSearchWideNodes is the regression for the historical overflow
// hazard: warpSearch's flag array was hard-coded to 16+1 slots, so a
// 32-slot node silently read garbage flags. The layout engine's wide
// root nodes make every width up to MaxNodeWidth a first-class input.
func TestWarpSearchWideNodes(t *testing.T) {
	r := workload.NewRNG(13)
	for _, width := range []int{8, 16, 32, 64} {
		for iter := 0; iter < 500; iter++ {
			line := sortedNode[uint64](r, width, 1000, 1)
			q := r.Uint64() % 1100
			want := sort.Search(width, func(i int) bool { return q <= line[i] })
			if got := warpSearch(line, q); got != want {
				t.Fatalf("width %d: warpSearch(%v, %d) = %d, want %d", width, line, q, got, want)
			}
		}
	}
}

// TestKernelRejectsOverwideLevel pins the launch-time width check: a
// descriptor declaring a level wider than MaxNodeWidth fails every
// kernel at launch with an error naming the limit, and writes nothing.
func TestKernelRejectsOverwideLevel(t *testing.T) {
	const wide = MaxNodeWidth + 1
	iseg := make([]uint64, 2*wide)
	for i := range iseg {
		iseg[i] = keys.Max[uint64]()
	}
	desc := ImplicitDesc{Kpn: 8, Fanout: 8, Height: 2, NumLeaves: 64, Levels: []LevelGeom{
		{Off: 0, Kpn: 8, Fanout: 8, Lines: 1},
		{Off: 8, Kpn: wide, Fanout: wide, Lines: 9},
	}}
	reg := RegularDesc{Root: 0, Height: 1, NodeSlots: wide * (1 + 2*wide), Kpl: wide}
	last := [][]uint64{make([]uint64, reg.NodeSlots)}
	qs := []uint64{1, 2, 3}
	out := []int32{-1, -1, -1}
	out2 := []int32{-1, -1, -1}
	launches := map[string]func() error{
		"implicit": func() error {
			_, err := ImplicitSearchKernel(dev(), iseg, desc, qs, out, 0, nil)
			return err
		},
		"implicit sorted": func() error {
			_, err := ImplicitSearchKernelSorted(dev(), iseg, desc, qs, out, nil)
			return err
		},
		"regular": func() error {
			_, err := RegularSearchKernel(dev(), nil, last, reg, qs, out, out2, 0, nil)
			return err
		},
		"regular sorted": func() error {
			_, err := RegularSearchKernelSorted(dev(), nil, last, reg, qs, out, out2, nil)
			return err
		},
	}
	for name, launch := range launches {
		err := launch()
		if err == nil || !strings.Contains(err.Error(), "MaxNodeWidth") {
			t.Fatalf("%s: launch over a %d-slot level returned %v, want an error naming MaxNodeWidth", name, wide, err)
		}
		if out[0] != -1 || out2[0] != -1 {
			t.Fatalf("%s: a refused launch wrote results", name)
		}
	}
}

// TestKernelRejectsOvertallTree pins the launch-time height check: a
// descriptor with more inner levels than maxHeight, the depth of a
// sorted launch's per-level frontier arrays, fails every kernel at
// launch, and writes nothing.
func TestKernelRejectsOvertallTree(t *testing.T) {
	const tall = maxHeight + 1
	levels := make([]LevelGeom, tall)
	for l := range levels {
		levels[l] = LevelGeom{Off: 0, Kpn: 8, Fanout: 1, Lines: 1}
	}
	iseg := make([]uint64, 8)
	for i := range iseg {
		iseg[i] = keys.Max[uint64]()
	}
	desc := ImplicitDesc{Kpn: 8, Fanout: 8, Height: tall, NumLeaves: 1, Levels: levels}
	reg := RegularDesc{Root: 0, Height: tall, NodeSlots: 8 * 17, Kpl: 8}
	last := [][]uint64{make([]uint64, reg.NodeSlots)}
	qs := []uint64{1, 2, 3}
	out := []int32{-1, -1, -1}
	out2 := []int32{-1, -1, -1}
	launches := map[string]func() error{
		"implicit": func() error {
			_, err := ImplicitSearchKernel(dev(), iseg, desc, qs, out, 0, nil)
			return err
		},
		"implicit sorted": func() error {
			_, err := ImplicitSearchKernelSorted(dev(), iseg, desc, qs, out, nil)
			return err
		},
		"regular": func() error {
			_, err := RegularSearchKernel(dev(), nil, last, reg, qs, out, out2, 0, nil)
			return err
		},
		"regular sorted": func() error {
			_, err := RegularSearchKernelSorted(dev(), nil, last, reg, qs, out, out2, nil)
			return err
		},
	}
	for name, launch := range launches {
		err := launch()
		if err == nil || !strings.Contains(err.Error(), "launch bound") {
			t.Fatalf("%s: launch over %d levels returned %v, want an error naming the launch bound", name, tall, err)
		}
		if out[0] != -1 || out2[0] != -1 {
			t.Fatalf("%s: a refused launch wrote results", name)
		}
	}
}
