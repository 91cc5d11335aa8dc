package gpusim

import (
	"slices"
	"sync/atomic"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// The sorted launches run the grouped kernel bodies and count the
// frontier's distinct nodes level by level. The per-query sweeps below
// are the bodies they replaced; the tests hold the grouped launches'
// results, transaction totals and per-level counts to the sweeps',
// launched over the same fan-out chunks.

// implicitSortedRange is the sorted implicit kernel's former body, kept
// as the oracle of the shared count: it descends queries[lo:hi] level by
// level, one query at a time, using out as the frontier (the node index
// each query sits at), and returns the distinct-node transaction count.
// A fresh node probe at level l costs geom[l].Lines transactions (a wide
// node spans several coalesced lines); a follower inside the resident
// node costs none and advances the leader's slot instead of searching.
func implicitSortedRange[K keys.Key](iseg []K, geom []LevelGeom, height, numLeaves int, queries []K, out []int32, lvl []int64, lo, hi int) int64 {
	var trans int64
	for i := lo; i < hi; i++ {
		out[i] = 0
	}
	for l := 0; l < height; l++ {
		g := geom[l]
		prevIdx := int32(-1)
		var node []K
		res := 0
		var lt int64
		for i := lo; i < hi; i++ {
			idx := out[i]
			q := queries[i]
			if idx != prevIdx {
				off := int(g.Off) + int(idx)*int(g.Kpn)
				node = iseg[off : off+int(g.Kpn)]
				prevIdx = idx
				res = warpSearch(node, q)
				lt += int64(g.Lines)
			} else if q > node[res] {
				// Monotone advance: a later sorted query's lower bound
				// never moves backwards within the resident node.
				for res < len(node)-1 && q > node[res] {
					res++
				}
			}
			out[i] = idx*g.Fanout + int32(res)
		}
		trans += lt
		if l < len(lvl) {
			// The fanned-out path shares lvl across chunk goroutines.
			atomic.AddInt64(&lvl[l], lt)
		}
	}
	for i := lo; i < hi; i++ {
		if int(out[i]) >= numLeaves {
			out[i] = int32(numLeaves - 1)
		}
	}
	return trans
}

// regularSortedRange is the sorted regular kernel's former body, kept as
// the oracle of the shared count: it descends queries[lo:hi] through the
// regular pools level by level, one query at a time (outLeaf is the
// frontier), returning the transaction count. A query bounded by its
// leader's matched separator reuses the leader's resolution; any other
// query in the same node re-searches it and pays 1 for a new key line.
func regularSortedRange[K keys.Key](upper []K, last [][]K, desc RegularDesc, queries []K, outLeaf, outLine []int32, lvl []int64, lo, hi int) int64 {
	kpl := desc.Kpl
	shift, mask := pageGeom(last, desc)
	var trans int64
	for i := lo; i < hi; i++ {
		outLeaf[i] = desc.Root
	}
	for h := desc.Height; h >= 2; h-- {
		prevIdx := int32(-1)
		prevS := -1
		var sep K
		var next int32
		var lt int64
		for i := lo; i < hi; i++ {
			idx := outLeaf[i]
			q := queries[i]
			if idx == prevIdx && q <= sep {
				outLeaf[i] = next
				continue
			}
			newNode := idx != prevIdx
			base := int(idx) * desc.NodeSlots
			s := warpSearch(upper[base:base+kpl], q)
			u := warpSearch(upper[base+kpl+s*kpl:base+kpl+(s+1)*kpl], q)
			sep = upper[base+kpl+s*kpl+u]
			next = int32(upper[base+kpl+kpl*kpl+s*kpl+u])
			switch {
			case newNode:
				lt += 3 // index line, key line, reference line
			case s != prevS:
				lt++ // new key line within the resident node
			}
			prevIdx, prevS = idx, s
			outLeaf[i] = next
		}
		trans += lt
		if l := desc.Height - h; l < len(lvl) {
			atomic.AddInt64(&lvl[l], lt)
		}
	}
	prevIdx := int32(-1)
	prevS := -1
	var sep K
	var line int32
	var lt int64
	for i := lo; i < hi; i++ {
		idx := outLeaf[i]
		q := queries[i]
		if idx == prevIdx && q <= sep {
			outLine[i] = line
			continue
		}
		newNode := idx != prevIdx
		pg := last[idx>>shift]
		base := int(idx&mask) * desc.NodeSlots
		s := warpSearch(pg[base:base+kpl], q)
		u := warpSearch(pg[base+kpl+s*kpl:base+kpl+(s+1)*kpl], q)
		sep = pg[base+kpl+s*kpl+u]
		line = int32(s*kpl + u)
		switch {
		case newNode:
			lt += 2 // index line + key line; the last level has no references
		case s != prevS:
			lt++
		}
		prevIdx, prevS = idx, s
		outLine[i] = line
	}
	trans += lt
	if l := desc.Height - 1; l >= 0 && l < len(lvl) {
		atomic.AddInt64(&lvl[l], lt)
	}
	return trans
}

// oracleImplicitSorted launches the implicit oracle over d's fan-out
// chunks, as ImplicitSearchKernelSorted launches its body.
func oracleImplicitSorted[K keys.Key](d *Device, iseg []K, desc ImplicitDesc, qs []K, out []int32, lvl []int64) int64 {
	geom := desc.Geom()
	var trans atomic.Int64
	d.fanOut(len(qs), func(lo, hi int) {
		trans.Add(implicitSortedRange(iseg, geom, desc.Height, desc.NumLeaves, qs, out, lvl, lo, hi))
	})
	return trans.Load()
}

// oracleRegularSorted launches the regular oracle over d's fan-out
// chunks, as RegularSearchKernelSorted launches its body.
func oracleRegularSorted[K keys.Key](d *Device, upper []K, last [][]K, desc RegularDesc, qs []K, outLeaf, outLine []int32, lvl []int64) int64 {
	var trans atomic.Int64
	d.fanOut(len(qs), func(lo, hi int) {
		trans.Add(regularSortedRange(upper, last, desc, qs, outLeaf, outLine, lvl, lo, hi))
	})
	return trans.Load()
}

// sortedOracleQueries returns n ascending queries from seed: keys of
// pairs, with a share of arbitrary (mostly absent) keys and duplicates,
// plus 0, MAX and a key above every pair. A positive window draws the
// present keys from window consecutive pairs, so runs sharing a node
// grow long.
func sortedOracleQueries[K keys.Key](pairs []keys.Pair[K], n int, seed uint64, window int) []K {
	r := workload.NewRNG(seed)
	lo, span := 0, len(pairs)
	if window > 0 && window < span {
		lo, span = r.Intn(span-window), window
	}
	qs := make([]K, n)
	for i := range qs {
		switch r.Intn(8) {
		case 0:
			if i > 0 {
				qs[i] = qs[r.Intn(i)] // duplicate
				continue
			}
			fallthrough
		case 1:
			qs[i] = K(r.Uint64())
		default:
			qs[i] = pairs[lo+r.Intn(span)].Key
		}
	}
	qs[0] = 0
	qs[n-1] = keys.Max[K]()
	qs[n/2] = pairs[len(pairs)-1].Key + 1 // above every pair
	slices.Sort(qs)
	return qs
}

// implicitMatchesOracle holds ImplicitSearchKernelSorted to the oracle
// on the sorted batch qs: same leaf lines, total and per-level counts.
func implicitMatchesOracle[K keys.Key](t testing.TB, tr *cpubtree.ImplicitTree[K], qs []K) {
	t.Helper()
	inner, _, _, _ := tr.InnerArray()
	desc := implicitDescOf(tr)
	d := dev()
	got, want := make([]int32, len(qs)), make([]int32, len(qs))
	glvl, wlvl := make([]int64, desc.Height), make([]int64, desc.Height)
	gt, err := ImplicitSearchKernelSorted(d, inner, desc, qs, got, glvl)
	if err != nil {
		t.Fatal(err)
	}
	wt := oracleImplicitSorted(d, inner, desc, qs, want, wlvl)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("n=%d: key %d resolves to line %d, oracle %d", len(qs), qs[i], got[i], want[i])
	}
	if gt != wt || !slices.Equal(glvl, wlvl) {
		t.Fatalf("n=%d: %d transactions by level %v, oracle %d by level %v", len(qs), gt, glvl, wt, wlvl)
	}
}

// regularMatchesOracle holds RegularSearchKernelSorted to the oracle on
// the sorted batch qs.
func regularMatchesOracle[K keys.Key](t testing.TB, tr *cpubtree.RegularTree[K], qs []K) {
	t.Helper()
	upper, last, root, height, nodeSlots, kpl := tr.InnerArrays()
	desc := RegularDesc{Root: root, RootInUpper: height >= 2, Height: height, NodeSlots: nodeSlots, Kpl: kpl}
	d := dev()
	n := len(qs)
	gLeaf, gLine, wLeaf, wLine := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	glvl, wlvl := make([]int64, height), make([]int64, height)
	gt, err := RegularSearchKernelSorted(d, upper, last, desc, qs, gLeaf, gLine, glvl)
	if err != nil {
		t.Fatal(err)
	}
	wt := oracleRegularSorted(d, upper, last, desc, qs, wLeaf, wLine, wlvl)
	if i := max(firstDiff(gLeaf, wLeaf), firstDiff(gLine, wLine)); i >= 0 {
		t.Fatalf("n=%d: key %d resolves to (%d,%d), oracle (%d,%d)", n, qs[i], gLeaf[i], gLine[i], wLeaf[i], wLine[i])
	}
	if gt != wt || !slices.Equal(glvl, wlvl) {
		t.Fatalf("n=%d: %d transactions by level %v, oracle %d by level %v", n, gt, glvl, wt, wlvl)
	}
}

func buildRegularFor[K keys.Key](t testing.TB, n int, seed uint64) (*cpubtree.RegularTree[K], []keys.Pair[K]) {
	t.Helper()
	pairs := workload.Dataset[K](workload.Uniform, n, seed)
	tr, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, pairs
}

// oracleSizes are the sorted batch sizes the oracle tests launch: the
// group and fan-out boundaries, and a batch of several full chunks.
var oracleSizes = append(slices.Clone(groupSizes), 40000)

// TestSortedKernelsMatchOracle is the seeded property: over four seeds,
// every size in oracleSizes, uniform and tuned implicit layouts, regular
// trees of three and two inner levels, and both key widths, the grouped
// sorted launches equal the per-query oracle in results, transaction
// totals and per-level counts.
func TestSortedKernelsMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width []int
	}{{"uniform", nil}, {"tuned", []int{64, 32}}} {
		t.Run("implicit/"+tc.name+"/uint64", func(t *testing.T) {
			tr, pairs := buildImplicitFor[uint64](t, 1<<16, tc.width)
			for seed := uint64(1); seed <= 4; seed++ {
				for _, n := range oracleSizes {
					implicitMatchesOracle(t, tr, sortedOracleQueries(pairs, n, seed*100+uint64(n), 0))
				}
			}
		})
		t.Run("implicit/"+tc.name+"/uint32", func(t *testing.T) {
			tr, pairs := buildImplicitFor[uint32](t, 1<<16, tc.width)
			for seed := uint64(1); seed <= 4; seed++ {
				for _, n := range oracleSizes {
					implicitMatchesOracle(t, tr, sortedOracleQueries(pairs, n, seed*100+uint64(n), 0))
				}
			}
		})
	}
	t.Run("regular/uint64", func(t *testing.T) {
		tr, pairs := buildRegularFor[uint64](t, 400000, 62)
		if tr.Height() < 3 {
			t.Fatalf("height %d: want a reference level below the root", tr.Height())
		}
		for seed := uint64(1); seed <= 4; seed++ {
			for _, n := range oracleSizes {
				regularMatchesOracle(t, tr, sortedOracleQueries(pairs, n, seed*100+uint64(n), 0))
			}
		}
	})
	t.Run("regular/uint32", func(t *testing.T) {
		tr, pairs := buildRegularFor[uint32](t, 1<<18, 63)
		for seed := uint64(1); seed <= 4; seed++ {
			for _, n := range oracleSizes {
				regularMatchesOracle(t, tr, sortedOracleQueries(pairs, n, seed*100+uint64(n), 0))
			}
		}
	})
}

// FuzzSortedKernelsMatchOracle drives the same comparison with a fuzzed
// seed, batch size (1 + nsel mod 40000) and key window (0: the whole
// tree; otherwise 8*window consecutive pairs, so nodes are shared by
// long runs), on a uniform uint64, a tuned uint32 and a regular uint64
// tree.
func FuzzSortedKernelsMatchOracle(f *testing.F) {
	uni, uniPairs := buildImplicitFor[uint64](f, 1<<16, nil)
	tuned, tunedPairs := buildImplicitFor[uint32](f, 1<<16, []int{64, 32})
	reg, regPairs := buildRegularFor[uint64](f, 1<<17, 64)
	f.Add(uint64(1), uint16(16), uint8(0))
	f.Add(uint64(2), uint16(1024), uint8(1))
	f.Add(uint64(3), uint16(39999), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, nsel uint16, window uint8) {
		n := 1 + int(nsel)%40000
		w := 8 * int(window)
		implicitMatchesOracle(t, uni, sortedOracleQueries(uniPairs, n, seed, w))
		implicitMatchesOracle(t, tuned, sortedOracleQueries(tunedPairs, n, seed, w))
		regularMatchesOracle(t, reg, sortedOracleQueries(regPairs, n, seed, w))
	})
}
