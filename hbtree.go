// Package hbtree is a Go reproduction of the HB+-tree — "A Hybrid
// B+-tree as Solution for In-Memory Indexing on CPU-GPU Heterogeneous
// Computing Platforms" (Shahvarani & Jacobsen, SIGMOD 2016) — together
// with every substrate the paper's evaluation depends on: the
// CPU-optimized implicit and regular B+-trees, the FAST baseline, a
// simulated CUDA-class GPU, a simulated virtual-memory subsystem, and
// the workload generators.
//
// The package is the public facade over internal/core. An HB+-tree
// stores 64-bit or 32-bit key-value pairs; its inner-node segment is
// mirrored into (simulated) GPU memory while the leaves stay in host
// memory, and batch lookups run the heterogeneous four-step search of
// the paper — H2D copy, GPU inner traversal, D2H copy, CPU leaf search —
// under sequential, pipelined or double-buffered bucket scheduling, with
// an optional load-balancing mode for CPU-strong machines.
//
// All algorithms execute functionally (results are exact and tested);
// performance figures come from a calibrated virtual-time model of the
// paper's two evaluation machines, exposed as SearchStats.
//
// # Concurrency
//
// A bare Tree is safe for any number of concurrent readers (Lookup,
// LookupBatch, RangeQuery, cursors, Stats) but must not be mutated —
// Update, Rebuild, MixedBatch, Close or the option setters — while any
// other call is in flight. To share a tree between goroutines that also
// write, wrap it in a Server — NewServer for one shard, NewShardedServer
// for T key-range shards of the same engine. Its readers pin a snapshot
// epoch and never block while writers build and publish a successor
// version. Tree.Coalesced additionally merges concurrent point lookups
// into the bucket-sized batch searches the heterogeneous pipeline is
// built for.
//
// Quickstart:
//
//	pairs := hbtree.GeneratePairs[uint64](1<<20, 42)
//	t, err := hbtree.New(pairs, hbtree.Options{}) // may keep pairs: do not modify them
//	if err != nil { ... }
//	defer t.Close()
//	values, found, stats, err := t.LookupBatch(queries)
package hbtree

import (
	"io"
	"sort"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/platform"
	"hbtree/internal/workload"
)

// Key constrains the supported key widths: uint64 or uint32, the two
// variants the paper evaluates.
type Key = keys.Key

// Pair is one key-value tuple.
type Pair[K Key] = keys.Pair[K]

// Options configures a tree; the zero value reproduces the paper's final
// configuration (machine M1, implicit variant, 16K buckets, double
// buffering, pipeline depth 16). Nodes are always searched with the
// hierarchical SIMD search, the paper's fastest (Figure 8).
type Options = core.Options

// Variant selects the tree organisation.
type Variant = core.Variant

// Tree organisations.
const (
	// Implicit is the pointer-free array organisation: fastest search,
	// bulk-rebuild updates only.
	Implicit = core.Implicit
	// Regular is the pointered organisation with incremental batch
	// updates.
	Regular = core.Regular
)

// Strategy selects the bucket-handling technique.
type Strategy = core.Strategy

// Bucket-handling strategies (Figure 10 of the paper).
const (
	Sequential     = core.Sequential
	Pipelined      = core.Pipelined
	DoubleBuffered = core.DoubleBuffered
)

// Layout selects the implicit variant's inner-node geometry engine
// (Options.Layout).
type Layout = core.Layout

// Inner-node layouts.
const (
	// LayoutUniform is the classic geometry: every inner node is one
	// cache line / one coalesced device transaction wide.
	LayoutUniform = core.LayoutUniform
	// LayoutTuned lets the cost model widen root-side levels into
	// multi-line nodes sized for the batch quantum (Options.LayoutBatch),
	// trading amortised root lines for a shorter tree.
	LayoutTuned = core.LayoutTuned
)

// UpdateMethod selects how the regular tree keeps the GPU replica of its
// I-segment synchronised during batch updates (Section 5.6).
type UpdateMethod = core.UpdateMethod

// Update methods.
const (
	// AsyncParallel applies the batch with worker threads, then
	// re-transfers the whole I-segment. Best for large batches.
	AsyncParallel = core.AsyncParallel
	// AsyncSingle is the single-threaded asynchronous baseline.
	AsyncSingle = core.AsyncSingle
	// Synchronized streams each modified inner node to the GPU
	// concurrently with the modifying thread. Best for small batches.
	Synchronized = core.Synchronized
	// SynchronizedMT adds modifying threads to Synchronized.
	SynchronizedMT = core.SynchronizedMT
)

// Tree is a hybrid CPU-GPU B+-tree over K.
type Tree[K Key] struct {
	*core.Tree[K]
}

// SearchStats reports a batch lookup's virtual-time performance.
type SearchStats = core.SearchStats

// UpdateStats reports a batch update's outcome and virtual-time cost.
type UpdateStats = core.UpdateStats

// BuildStats reports construction cost (the Figure 15 phases).
type BuildStats = core.BuildStats

// Balance holds the load-balancing parameters (D, R) of Section 5.5.
type Balance = core.Balance

// Op is one update operation for the regular variant.
type Op[K Key] = cpubtree.Op[K]

// MachineM1 returns the primary evaluation platform model (Xeon E5-2665
// + GeForce GTX 780).
func MachineM1() platform.Machine { return platform.M1() }

// MachineM2 returns the secondary platform model (Core i7-4800MQ +
// GeForce GTX 770M), whose weaker GPU motivates load balancing.
func MachineM2() platform.Machine { return platform.M2() }

// New builds an HB+-tree from sorted, distinct pairs and mirrors its
// I-segment into the simulated GPU's memory. It fails when the pairs are
// not strictly increasing, when a key equals the reserved maximum value,
// or when the I-segment exceeds the GPU memory capacity.
//
// An implicit build may keep pairs as its leaf segment; do not modify
// them afterwards. The implicit tree's leaf lines interleave keys and
// values exactly as a []Pair does, so when the pairs fill whole 64-byte
// lines from a line boundary, the tree reads them in place instead of
// holding a second copy.
func New[K Key](pairs []Pair[K], opt Options) (*Tree[K], error) {
	t, err := core.Build(pairs, opt)
	if err != nil {
		return nil, err
	}
	return &Tree[K]{t}, nil
}

// GeneratePairs returns n sorted, distinct, uniformly distributed
// key-value pairs — the paper's dataset generator (Section 6.1). The
// pairs depend only on n and seed, not on GOMAXPROCS; n <= 0 yields an
// empty slice.
func GeneratePairs[K Key](n int, seed uint64) []Pair[K] {
	return workload.Dataset[K](workload.Uniform, n, seed)
}

// ShuffledQueries returns the dataset's keys in Knuth-shuffled order,
// the paper's point-query workload.
func ShuffledQueries[K Key](pairs []Pair[K], n int, seed uint64) []K {
	return workload.SearchInput(pairs, n, seed)
}

// ValueFor returns the canonical value GeneratePairs stores with a key,
// for verifying lookups.
func ValueFor[K Key](k K) K { return workload.ValueFor(k) }

// WriteTo serialises the tree's host-resident state to w; Load restores
// it. The GPU replica is rebuilt on load (one I-segment transfer), just
// as a process restart on real hardware would.
//
// The format is a versioned little-endian image of the node pools; it is
// independent of the machine model, which is supplied again at Load.
func Load[K Key](r io.Reader, opt Options) (*Tree[K], error) {
	t, err := core.Load[K](r, opt)
	if err != nil {
		return nil, err
	}
	return &Tree[K]{t}, nil
}

// Cursor is a forward iterator over stored pairs in key order; obtain
// one with Tree.Seek. Cursors are read-only and must not be used
// concurrently with updates.
type Cursor[K Key] = cpubtree.Cursor[K]

// NewFromUnsorted builds a tree from arbitrary pairs: they are sorted
// and de-duplicated (last write wins for duplicate keys) before the bulk
// load. Pairs with the reserved maximum key are rejected.
func NewFromUnsorted[K Key](pairs []Pair[K], opt Options) (*Tree[K], error) {
	sorted := append([]Pair[K](nil), pairs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	w := 0
	for i, p := range sorted {
		if i > 0 && p.Key == sorted[w-1].Key {
			sorted[w-1] = p // last write wins
			continue
		}
		sorted[w] = p
		w++
	}
	return New(sorted[:w], opt)
}
