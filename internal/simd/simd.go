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

// SearchLinear8x64 is the fixed-shape 64-bit kernel for one full cache
// line of eight keys — the exact shape of Snippet 1.
func SearchLinear8x64(line *[8]uint64, q uint64) int {
	k := lt(line[0], q) + lt(line[1], q) + lt(line[2], q) + lt(line[3], q)
	k += lt(line[4], q) + lt(line[5], q) + lt(line[6], q) + lt(line[7], q)
	return k
}

// SearchHier8 implements the hierarchical search of Snippet 2 on an
// 8-key line (64-bit tree nodes): the boundary keys at positions 2 and 5
// split the line into three parts; a second two-key compare finishes
// within the selected part.
func SearchHier8[K keys.Key](line []K, q K) int {
	_ = line[7]
	k := 3 * (lt(line[2], q) + lt(line[5], q))
	k += lt(line[k], q) + lt(line[k+1], q)
	return k
}

// SearchHier16 is the 32-bit-tree hierarchical variant (Figure 3(c)):
// one 8-lane compare against the five boundary keys at positions
// 2, 5, 8, 11 and 14 splits the 16-key line into parts of three, then a
// two-key compare finishes within the selected part (the last part has
// only one in-range key, so its second compare is skipped).
func SearchHier16[K keys.Key](line []K, q K) int {
	_ = line[15]
	base := 3 * (lt(line[2], q) + lt(line[5], q) + lt(line[8], q) + lt(line[11], q) + lt(line[14], q))
	c := lt(line[base], q)
	if base < 15 {
		c += lt(line[base+1], q)
	}
	return base + c
}

// SearchHierarchical dispatches to the fixed-shape hierarchical kernel
// for 8- or 16-key lines and falls back to the linear kernel for other
// lengths (hierarchical blocking is only defined for full lines).
func SearchHierarchical[K keys.Key](line []K, q K) int {
	switch len(line) {
	case 8:
		return SearchHier8(line, q)
	case 16:
		return SearchHier16(line, q)
	default:
		return SearchLinear(line, q)
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
