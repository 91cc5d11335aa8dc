// Package cpubtree implements the paper's CPU-optimized B+-trees
// (Section 4): the implicit (pointer-free, breadth-first array) variant
// and the regular (pointered) variant, both in 64-bit and 32-bit key
// versions via generics.
//
// The three optimisations of Section 4 are all present:
//
//  1. SIMD-enabled node search (internal/simd): the hierarchical
//     kernel of Figure 3(c), the fastest of Figure 8, per query, and
//     its grouped level step in batches;
//  2. cache blocking — every node is built from 64-byte lines, the
//     regular tree's inner nodes carry an index line so a node search
//     touches 3 lines instead of 17, and leaves are packed into big
//     256-entry nodes for range-query locality;
//  3. huge-page awareness — the I-segment and L-segment are allocated
//     from the simulated memory subsystem (internal/mem) with
//     configurable page kinds, reproducing the three configurations of
//     Figure 7.
//
// Batch lookups apply software pipelining (Algorithm 2) with a
// configurable pipeline depth (16 is the paper's optimum) and fan out
// across goroutines, standing in for the OpenMP thread pool.
package cpubtree

import (
	"runtime"
	"sync"

	"hbtree/internal/mem"
)

// DefaultPipelineDepth is the software-pipeline length that performed
// best in the paper's experiments (Section 4.2).
const DefaultPipelineDepth = 16

// Config controls tree construction.
type Config struct {
	// Fanout overrides the inner-node fanout of the implicit tree:
	// keys-per-line+1 (9 or 17) for the CPU-optimized tree,
	// keys-per-line (8 or 16) for the HB+-tree I-segment whose last key
	// is pinned to MAX (Section 5.2). Zero selects the CPU-optimized
	// default. The regular tree ignores it (its fanout is fixed by the
	// node geometry).
	Fanout int

	// RootWidths widens the top levels of the implicit tree, root first:
	// entry l is the key-slot width (and fanout) of level l, which must
	// be a multiple of the keys-per-line count (a wide node spans several
	// cache lines) and at most 64 slots; zero entries and levels past the
	// slice keep the base Fanout geometry. The policy is stored, not the
	// concrete heights, so Rebuild re-derives a valid layout at any data
	// size. The regular tree ignores it.
	RootWidths []int

	// PipelineDepth is the software-pipeline length for batch lookups;
	// zero selects DefaultPipelineDepth, negative disables pipelining.
	PipelineDepth int

	// Threads is the number of worker goroutines for batch operations
	// and both trees' bulk loads; zero selects GOMAXPROCS.
	Threads int

	// ISegPages / LSegPages choose the page kind backing each segment
	// (the three configurations of Figure 7). The default (zero values)
	// is 4 KiB pages for both.
	ISegPages mem.PageKind
	LSegPages mem.PageKind

	// Alloc is the simulated address-space allocator; nil allocates a
	// private one.
	Alloc *mem.Allocator

	// LeafFill is the bulk-load fill factor of the regular tree's big
	// leaves in (0, 1]; zero selects 1.0 (full, the paper's assumption
	// for the search experiments). Update-heavy experiments use lower
	// values to leave slack.
	LeafFill float64
}

func (c *Config) fillDefaults() {
	if c.PipelineDepth == 0 {
		c.PipelineDepth = DefaultPipelineDepth
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Alloc == nil {
		c.Alloc = mem.NewAllocator()
	}
	if c.LeafFill <= 0 || c.LeafFill > 1 {
		c.LeafFill = 1.0
	}
}

// Stats summarises a tree's geometry for the cost model and the space
// equations of the paper (Equation 1).
type Stats struct {
	NumPairs   int
	Height     int   // H: height of root, leaves at height 0
	InnerBytes int64 // I_space
	LeafBytes  int64 // L_space
	// LinesPerQuery is the number of cache-line touches of one point
	// lookup: H+1 for the implicit tree, 3H for the regular tree
	// (Section 4.1).
	LinesPerQuery int
}

// runsInline reports whether a batch of n items executes on the calling
// goroutine (too small to be worth fanning out). Callers on the serving
// fast path test this before constructing the parallelFor closure, so
// small batches stay allocation-free.
func runsInline(n, workers int) bool {
	return workers <= 1 || n < 2*1024
}

// parallelFor splits n items across workers goroutines, invoking
// fn(start, end) per contiguous chunk.
func parallelFor(n, workers int, fn func(start, end int)) {
	if runsInline(n, workers) {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= n {
			break
		}
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(start, end)
	}
	wg.Wait()
}
