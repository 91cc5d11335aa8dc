// Package simd implements the paper's in-node search kernels
// (Section 4.2 and Appendix A) as branch-free, lane-parallel Go code.
//
// The original implementation uses Intel AVX/AVX2 intrinsics
// (_mm256_cmpgt_epi64 + movemask + popcount, Snippets 1 and 2). Go has no
// intrinsics, so each kernel here performs the identical algorithm —
// comparisons whose boolean results are summed, as a popcount sums a
// compare mask's lanes — which both preserves the result semantics
// exactly and lets the cost model charge SIMD-width-aware per-node
// costs. Three algorithms are provided, matching the paper's
// evaluation (Figure 8):
//
//   - Sequential: plain scan, the paper's baseline.
//   - Linear: two full-width compare+popcount passes over the line
//     (Snippet 1); control-dependency free.
//   - Hierarchical: compare boundary keys first, then one sub-range
//     (Snippet 2); fewer loads, one data-dependent step.
//
// All kernels compute the lower bound: the minimum index i such that
// q <= line[i]. Inner nodes keep their trailing slots at keys.Max, so for
// tree traversal the result is always a valid child index.
//
// This package is the only place a B+-tree node is searched: the CPU trees
// and the simulated GPU kernels search one query's node with
// SearchHierarchical, and advance a group of queries one implicit-tree
// level with DescendLevel. Sequential and Linear are the baselines of
// Figure 8 and inputs of its cost model.
package simd

import "hbtree/internal/keys"

// Algorithm selects the in-node search kernel.
type Algorithm int

// Available kernels. The zero value is the hierarchical search, the
// paper's fastest kernel (Figure 8) and hence the default configuration.
const (
	Hierarchical Algorithm = iota // hierarchical AVX-style search (Snippet 2)
	Linear                        // linear AVX-style search (Snippet 1)
	Sequential                    // scalar scan (baseline in Fig. 8)
)

// String returns the kernel name as used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case Sequential:
		return "sequential"
	case Linear:
		return "linear-SIMD"
	case Hierarchical:
		return "hierarchical-SIMD"
	}
	return "unknown"
}

// lt returns 1 if a < b, else 0, without a branch.
func lt[K keys.Key](a, b K) int {
	if a < b {
		return 1
	}
	return 0
}

// SearchSequential returns the minimum i in [0, len(line)] such that
// q <= line[i]; len(line) if q is greater than every element.
func SearchSequential[K keys.Key](line []K, q K) int {
	for i, k := range line {
		if q <= k {
			return i
		}
	}
	return len(line)
}

// SearchLinear implements the linear AVX search of Snippet 1 generalised
// to any line length: each key's greater-than lane adds one to the child
// index, as the popcount of a 256-bit compare's movemask adds its four
// 64-bit (or eight 32-bit) lanes. Lanes are independent, so the count is
// taken key by key; the compiler turns each compare into a conditional
// move, so the result is branch-free with respect to the data.
func SearchLinear[K keys.Key](line []K, q K) int {
	k := 0
	for _, x := range line {
		if x < q { // cmpgt(query, key): key < query
			k++
		}
	}
	return k
}

// SearchHierarchical implements the hierarchical search of Snippet 2
// on one full line. On an 8-key line (64-bit tree nodes) the boundary
// keys at positions 2 and 5 split the line into three parts; on a
// 16-key line (32-bit nodes, Figure 3(c)) one 8-lane compare against
// the boundary keys at 2, 5, 8, 11 and 14 splits it into parts of
// three. A second two-key compare finishes within the selected part
// (the last 16-key part has only one in-range key, so its second
// compare is skipped). Other lengths fall back to the linear kernel
// (hierarchical blocking is only defined for full lines).
func SearchHierarchical[K keys.Key](line []K, q K) int {
	switch len(line) {
	case 8:
		k := 3 * (lt(line[2], q) + lt(line[5], q))
		return k + lt(line[k], q) + lt(line[k+1], q)
	case 16:
		k := 3 * (lt(line[2], q) + lt(line[5], q) + lt(line[8], q) + lt(line[11], q) + lt(line[14], q))
		c := lt(line[k], q)
		if k < 15 {
			c += lt(line[k+1], q)
		}
		return k + c
	}
	return SearchLinear(line, q)
}

// DescendLevel advances a group of queries one level down an implicit
// tree, the level step of the paper's batch search (Algorithm 2):
// idx[j] is the node that qs[j] sits at within level, whose nodes hold
// kpn key slots each and fan out fanout ways, and becomes the child the
// query descends to. The step first loads the first key of every
// member's node into loaded (the caller's scratch, at least len(qs)
// long), so the group's cache misses overlap, and only then searches
// the nodes. Go has no prefetch intrinsic, so every search consumes its
// loaded key; a load whose value went unused could be deleted by the
// compiler. An 8- or 16-slot node is searched with SearchHierarchical's
// shape written out, as a call would not inline: the boundary keys pick
// a part of three slots and its keys finish the count, the loaded key
// standing in for slot 0. A wider node is searched by SearchHierarchical
// (SearchLinear's count), gated by the loaded key (a query not above a
// sorted node's first key ranks 0). The call stays a call: inlined, the
// count loop read ~110 against ~70 ns per query on a [64 32 8 8 8]-slot
// tree of 2^20 uint64 keys (one goroutine, 2-vCPU x86-64 host). Every
// shape computes the lower bound, clamped to the last child (fanout-1):
// a 16-slot node's last part is slot 15 alone, whose second compare
// reads slot 15 again, and the clamp absorbs it.
func DescendLevel[K keys.Key](level []K, kpn, fanout int, qs []K, idx []int32, loaded []K) {
	first := loaded[:len(qs)]
	for j, i := range idx[:len(qs)] {
		first[j] = level[int(i)*kpn]
	}
	f, last := int32(fanout), fanout-1
	switch kpn {
	case 8:
		for j, k0 := range first {
			q := qs[j]
			n := (*[8]K)(level[int(idx[j])*8:])
			k := 3 * (lt(n[2], q) + lt(n[5], q))
			x := n[k]
			if k == 0 {
				x = k0
			}
			idx[j] = idx[j]*f + int32(min(k+lt(x, q)+lt(n[k+1], q), last))
		}
	case 16:
		for j, k0 := range first {
			q := qs[j]
			n := (*[16]K)(level[int(idx[j])*16:])
			k := 3 * (lt(n[2], q) + lt(n[5], q) + lt(n[8], q) + lt(n[11], q) + lt(n[14], q))
			x := n[k]
			if k == 0 {
				x = k0
			}
			idx[j] = idx[j]*f + int32(min(k+lt(x, q)+lt(n[min(k+1, 15)], q), last))
		}
	default:
		for j, q := range qs {
			off := int(idx[j]) * kpn
			idx[j] = idx[j]*f + int32(min(lt(first[j], q)*SearchHierarchical(level[off:off+kpn], q), last))
		}
	}
}

// Search runs the selected kernel on the line.
func Search[K keys.Key](a Algorithm, line []K, q K) int {
	switch a {
	case Linear:
		return SearchLinear(line, q)
	case Hierarchical:
		return SearchHierarchical(line, q)
	default:
		return SearchSequential(line, q)
	}
}

// SearchPairsLine searches one leaf cache line of interleaved key-value
// pairs [k0 v0 k1 v1 ...] and returns the pair index of the first key
// >= q and whether that key equals q. Empty slots hold keys.Max, so the
// scan needs no size field (Section 4.1).
func SearchPairsLine[K keys.Key](line []K, q K) (idx int, found bool) {
	n := len(line) / 2
	for i := 0; i < n; i++ {
		if k := line[2*i]; q <= k {
			return i, k == q
		}
	}
	return n, false
}
