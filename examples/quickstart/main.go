// Quickstart: build an HB+-tree, run a batch of point lookups through
// the hybrid CPU-GPU search path, and print the simulated performance
// figures.
package main

import (
	"fmt"
	"log"

	"hbtree"
)

func main() {
	// 1. A synthetic dataset: one million sorted, distinct key-value
	// pairs, uniformly distributed (the paper's workload).
	const n = 1 << 20
	pairs := hbtree.GeneratePairs[uint64](n, 42)

	// 2. Build the tree. The zero Options reproduce the paper's final
	// configuration: machine M1 (Xeon E5-2665 + GTX 780), implicit
	// variant, 16K buckets, double buffering. The implicit tree may
	// keep pairs as its leaf segment, so they must not be modified
	// afterwards.
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()

	st := tree.Stats()
	fmt.Printf("tree: %d pairs, height %d, I-segment %.1f MiB (mirrored to GPU), L-segment %.1f MiB (host only)\n",
		st.NumPairs, st.Height,
		float64(st.InnerBytes)/(1<<20), float64(st.LeafBytes)/(1<<20))

	// 3. The search workload: the dataset's keys in Knuth-shuffled
	// order, so every query hits.
	queries := hbtree.ShuffledQueries(pairs, 1<<18, 7)

	// 4. Hybrid batch lookup: buckets of 16K queries flow through
	// H2D copy -> GPU inner traversal -> D2H copy -> CPU leaf search.
	values, found, stats, err := tree.LookupBatch(queries)
	if err != nil {
		log.Fatal(err)
	}
	for i, q := range queries {
		if !found[i] || values[i] != hbtree.ValueFor(q) {
			log.Fatalf("lookup %d of key %d returned (%d, %v)", i, q, values[i], found[i])
		}
	}
	fmt.Printf("resolved %d queries in %d buckets\n", stats.Queries, stats.Buckets)
	fmt.Printf("simulated throughput: %.1f MQPS, latency: %s\n",
		stats.ThroughputQPS/1e6, stats.AvgLatency)
	fmt.Printf("stage times per bucket: H2D %s | GPU %s | D2H %s | CPU %s\n",
		stats.T1, stats.T2, stats.T3, stats.T4)

	// 5. A single lookup and a range scan also work without batching
	// (they run on the CPU path).
	v, ok := tree.Lookup(pairs[123].Key)
	fmt.Printf("point lookup: key %d -> value %d (found=%v)\n", pairs[123].Key, v, ok)
	rng := tree.RangeQuery(pairs[1000].Key, 5, nil)
	fmt.Printf("range scan from key %d: %d pairs, first value %d\n",
		pairs[1000].Key, len(rng), rng[0].Value)
}
