package gpusim

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// Group-boundary tests of the kernels' host execution: a launch descends
// kernelGroup queries at a time, and a fanned-out launch (1024 queries
// or more) does so inside each worker's chunk, so every batch size
// around a group or the fan-out threshold must answer exactly what a
// per-query descent answers. That descent is the tests' own oracle
// (implicitOracle, regularOracle): the kernels and the host trees share
// their node search (internal/simd), so the host trees cannot be it.

// groupSizes are the batch sizes the boundary tests launch: one query,
// a group's either side, the fan-out threshold's either side, and a
// batch whose chunks end in partial groups.
var groupSizes = []int{1, kernelGroup - 1, kernelGroup, kernelGroup + 1, 1023, 1024, 1025, 16387}

// boundaryQueries returns the largest batch the boundary tests launch:
// searches drawn from pairs, with the smallest key, MAX and a key above
// every pair placed across the first group boundary and at the end.
func boundaryQueries[K keys.Key](pairs []keys.Pair[K], seed uint64) []K {
	qs := workload.SearchInput(pairs, slices.Max(groupSizes), seed)
	above := pairs[len(pairs)-1].Key + 1
	qs[0] = 0
	qs[kernelGroup-1] = keys.Max[K]()
	qs[kernelGroup] = above
	qs[len(qs)-1] = keys.Max[K]()
	return qs
}

// implicitDescOf returns the kernel descriptor of tr: the scalar uniform
// geometry when tr is uniform (the kernel materialises the table), the
// per-level table otherwise, as internal/core derives it.
func implicitDescOf[K keys.Key](tr *cpubtree.ImplicitTree[K]) ImplicitDesc {
	_, levelOff, kpn, fanout := tr.InnerArray()
	desc := ImplicitDesc{Kpn: kpn, Fanout: fanout, Height: tr.Height(), NumLeaves: tr.NumLeafLines()}
	for _, o := range levelOff {
		desc.LevelOff = append(desc.LevelOff, int32(o))
	}
	if !tr.UniformLayout() {
		for _, g := range tr.LevelGeometry() {
			desc.Levels = append(desc.Levels, LevelGeom{Off: int32(g.Slot), Kpn: int32(g.Kpn), Fanout: int32(g.Fanout), Lines: int32(g.Kpn / kpn)})
		}
	}
	return desc
}

// implicitOracle is the tests' per-query descent of an implicit tree.
// It shares no code with the kernel or the host tree's search: each
// node is searched by sort.Search for the lower bound, clamped to the
// node's last child.
type implicitOracle[K keys.Key] struct {
	inner  []K
	geom   []cpubtree.LevelGeomEntry
	leaves int
}

func newImplicitOracle[K keys.Key](tr *cpubtree.ImplicitTree[K]) implicitOracle[K] {
	inner, _, _, _ := tr.InnerArray()
	return implicitOracle[K]{inner: inner, geom: tr.LevelGeometry(), leaves: tr.NumLeafLines()}
}

// walk descends q through the top depth levels and returns its node
// index at level depth; at the tree's height, its leaf line.
func (o implicitOracle[K]) walk(q K, depth int) int32 {
	idx := 0
	for _, g := range o.geom[:depth] {
		node := o.inner[g.Slot+idx*g.Kpn : g.Slot+(idx+1)*g.Kpn]
		idx = idx*g.Fanout + min(sort.Search(len(node), func(i int) bool { return q <= node[i] }), g.Fanout-1)
	}
	if depth == len(o.geom) {
		idx = min(idx, o.leaves-1)
	}
	return int32(idx)
}

// leafLine is q's leaf line.
func (o implicitOracle[K]) leafLine(q K) int32 { return o.walk(q, len(o.geom)) }

// implicitBoundaries launches the implicit kernels at every group size,
// from the root and resumed at every level, against implicitOracle.
func implicitBoundaries[K keys.Key](t *testing.T, tr *cpubtree.ImplicitTree[K], qs []K) {
	inner, _, _, _ := tr.InnerArray()
	desc := implicitDescOf(tr)
	o := newImplicitOracle(tr)
	want := make([]int32, len(qs))
	for i, q := range qs {
		want[i] = o.leafLine(q)
	}
	for _, n := range groupSizes {
		for D := 0; D < tr.Height(); D++ {
			var starts []int32
			if D > 0 {
				starts = make([]int32, n)
				for i, q := range qs[:n] {
					starts[i] = o.walk(q, D)
				}
			}
			out := make([]int32, n)
			trans, err := ImplicitSearchKernel(dev(), inner, desc, qs[:n], out, D, starts)
			if err != nil {
				t.Fatal(err)
			}
			if trans != int64(n)*desc.TransPerQuery(D) {
				t.Fatalf("n=%d D=%d: %d transactions, want %d", n, D, trans, int64(n)*desc.TransPerQuery(D))
			}
			if i := firstDiff(out, want[:n]); i >= 0 {
				t.Fatalf("n=%d D=%d: query %d (key %d) resolves to line %d, oracle %d", n, D, i, qs[i], out[i], want[i])
			}
		}
		sq := slices.Clone(qs[:n])
		slices.Sort(sq)
		out := make([]int32, n)
		if _, err := ImplicitSearchKernelSorted(dev(), inner, desc, sq, out, nil); err != nil {
			t.Fatal(err)
		}
		for i, q := range sq {
			if out[i] != o.leafLine(q) {
				t.Fatalf("sorted n=%d: key %d resolves to line %d, oracle %d", n, q, out[i], o.leafLine(q))
			}
		}
	}
}

func buildImplicitFor[K keys.Key](t testing.TB, n int, rootWidths []int) (*cpubtree.ImplicitTree[K], []keys.Pair[K]) {
	t.Helper()
	pairs := workload.Dataset[K](workload.Uniform, n, 61)
	tr, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{Fanout: keys.PerLine[K](), RootWidths: rootWidths})
	if err != nil {
		t.Fatal(err)
	}
	if tr.UniformLayout() != (rootWidths == nil) {
		t.Fatalf("RootWidths %v: uniform layout = %v", rootWidths, tr.UniformLayout())
	}
	return tr, pairs
}

func TestImplicitKernelGroupBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width []int
	}{{"uniform", nil}, {"tuned", []int{64, 32}}} {
		t.Run(tc.name+"/uint64", func(t *testing.T) {
			tr, pairs := buildImplicitFor[uint64](t, 1<<16, tc.width)
			implicitBoundaries(t, tr, boundaryQueries(pairs, 3))
		})
		t.Run(tc.name+"/uint32", func(t *testing.T) {
			tr, pairs := buildImplicitFor[uint32](t, 1<<16, tc.width)
			implicitBoundaries(t, tr, boundaryQueries(pairs, 4))
		})
	}
}

// regularOracle is the tests' per-query descent of a regular tree. It
// shares no code with the kernel or the host tree's search: each node's
// index line and then its selected key line are searched by warpSearch.
type regularOracle[K keys.Key] struct {
	upper                  []K
	last                   [][]K
	root                   int32
	height, nodeSlots, kpl int
}

func newRegularOracle[K keys.Key](tr *cpubtree.RegularTree[K]) regularOracle[K] {
	upper, last, root, height, nodeSlots, kpl := tr.InnerArrays()
	return regularOracle[K]{upper: upper, last: last, root: root, height: height, nodeSlots: nodeSlots, kpl: kpl}
}

// child returns q's child slot in the node starting at pool[base].
func (o regularOracle[K]) child(pool []K, base int, q K) int {
	s := warpSearch(pool[base:base+o.kpl], q)
	u := warpSearch(pool[base+o.kpl*(1+s):base+o.kpl*(2+s)], q)
	return s*o.kpl + u
}

// walk descends q from the root to height stop (at least 1, the last
// inner level) and returns its node there.
func (o regularOracle[K]) walk(q K, stop int) int32 {
	idx := o.root
	for h := o.height; h > max(stop, 1); h-- {
		base := int(idx) * o.nodeSlots
		idx = int32(o.upper[base+o.kpl*(1+o.kpl)+o.child(o.upper, base, q)])
	}
	return idx
}

// toLeaf returns q's big leaf and leaf line.
func (o regularOracle[K]) toLeaf(q K) (int32, int32) {
	idx := o.walk(q, 1)
	perPage := cap(o.last[0]) / o.nodeSlots
	return idx, int32(o.child(o.last[int(idx)/perPage], int(idx)%perPage*o.nodeSlots, q))
}

// regularBoundaries launches the regular kernels at every group size,
// from the root and resumed at every height, against regularOracle.
func regularBoundaries[K keys.Key](t *testing.T, tr *cpubtree.RegularTree[K], qs []K) {
	upper, last, root, height, nodeSlots, kpl := tr.InnerArrays()
	desc := RegularDesc{Root: root, RootInUpper: height >= 2, Height: height, NodeSlots: nodeSlots, Kpl: kpl}
	o := newRegularOracle(tr)
	check := func(what string, qs []K, leaf, line []int32) {
		t.Helper()
		for i, q := range qs {
			l, c := o.toLeaf(q)
			if leaf[i] != l || line[i] != c {
				t.Fatalf("%s: query %d (key %d) resolves to (%d,%d), oracle (%d,%d)", what, i, q, leaf[i], line[i], l, c)
			}
		}
	}
	for _, n := range groupSizes {
		for stop := height + 1; stop >= 1; stop-- {
			var starts []int32
			if stop <= height {
				starts = make([]int32, n)
				for i, q := range qs[:n] {
					starts[i] = o.walk(q, stop)
				}
			}
			leaf, line := make([]int32, n), make([]int32, n)
			if _, err := RegularSearchKernel(dev(), upper, last, desc, qs[:n], leaf, line, stop, starts); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("n=%d resumed at height %d", n, stop), qs[:n], leaf, line)
		}
		sq := slices.Clone(qs[:n])
		slices.Sort(sq)
		leaf, line := make([]int32, n), make([]int32, n)
		if _, err := RegularSearchKernelSorted(dev(), upper, last, desc, sq, leaf, line, nil); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("sorted n=%d", n), sq, leaf, line)
	}
}

func TestRegularKernelGroupBoundaries(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		pairs := workload.Dataset[uint64](workload.Uniform, 400000, 62)
		tr, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Height() < 3 {
			t.Fatalf("height %d: the resumed launches need an upper level below the root", tr.Height())
		}
		regularBoundaries(t, tr, boundaryQueries(pairs, 5))
	})
	t.Run("uint32", func(t *testing.T) {
		pairs := workload.Dataset[uint32](workload.Uniform, 1<<18, 63)
		tr, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		regularBoundaries(t, tr, boundaryQueries(pairs, 6))
	})
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// kernelMatchesSearchInner launches the sorted implicit kernel on the
// sorted batch sq, and the plain one on sq shuffled from level start
// (resumed at the oracle's indices when start > 0), and holds every
// leaf line to implicitOracle, the per-query descent SearchInner
// specifies.
func kernelMatchesSearchInner[K keys.Key](t *testing.T, tr *cpubtree.ImplicitTree[K], sq []K, seed uint64, start int) {
	t.Helper()
	qs := slices.Clone(sq)
	workload.Shuffle(qs, seed)
	inner, _, _, _ := tr.InnerArray()
	desc := implicitDescOf(tr)
	o := newImplicitOracle(tr)
	var starts []int32
	if start > 0 {
		starts = make([]int32, len(qs))
		for i, q := range qs {
			starts[i] = o.walk(q, start)
		}
	}
	out := make([]int32, len(qs))
	if _, err := ImplicitSearchKernel(dev(), inner, desc, qs, out, start, starts); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if out[i] != o.leafLine(q) {
			t.Fatalf("n=%d from level %d: query %d (key %d) resolves to line %d, oracle %d", len(qs), start, i, q, out[i], o.leafLine(q))
		}
	}
	if _, err := ImplicitSearchKernelSorted(dev(), inner, desc, sq, out, nil); err != nil {
		t.Fatal(err)
	}
	for i, q := range sq {
		if out[i] != o.leafLine(q) {
			t.Fatalf("sorted n=%d: key %d resolves to line %d, oracle %d", len(sq), q, out[i], o.leafLine(q))
		}
	}
}

// FuzzImplicitKernelMatchesSearchInner holds the implicit kernel body
// to the per-query oracle descent on sortedOracleQueries' batches (keys,
// duplicates, absent keys, 0, MAX and a key above every pair), with a
// fuzzed seed, batch size (1 + nsel mod 5000: the inline path, and the
// fanned-out one from 1024 queries) and start level (level mod the
// tree's height), on four trees: uniform uint64 and uint32 trees,
// whose every level is one line wide, and tuned ones whose wide root
// levels (64 and 16 slots for uint64, 64 and 32 for uint32) sit above
// one-line levels.
func FuzzImplicitKernelMatchesSearchInner(f *testing.F) {
	uni64, uni64Pairs := buildImplicitFor[uint64](f, 1<<16, nil)
	tuned64, tuned64Pairs := buildImplicitFor[uint64](f, 1<<16, []int{64, 16})
	uni32, uni32Pairs := buildImplicitFor[uint32](f, 1<<16, nil)
	tuned32, tuned32Pairs := buildImplicitFor[uint32](f, 1<<16, []int{64, 32})
	f.Add(uint64(1), uint16(kernelGroup+1), uint8(0))
	f.Add(uint64(2), uint16(1500), uint8(1))
	f.Add(uint64(3), uint16(4999), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nsel uint16, level uint8) {
		n := 1 + int(nsel)%5000
		kernelMatchesSearchInner(t, uni64, sortedOracleQueries(uni64Pairs, n, seed, 0), seed, int(level)%uni64.Height())
		kernelMatchesSearchInner(t, tuned64, sortedOracleQueries(tuned64Pairs, n, seed, 0), seed, int(level)%tuned64.Height())
		kernelMatchesSearchInner(t, uni32, sortedOracleQueries(uni32Pairs, n, seed, 0), seed, int(level)%uni32.Height())
		kernelMatchesSearchInner(t, tuned32, sortedOracleQueries(tuned32Pairs, n, seed, 0), seed, int(level)%tuned32.Height())
	})
}
