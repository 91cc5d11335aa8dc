package main

import (
	"hbtree/internal/keys"
	"hbtree/internal/simd"
)

// simdSearch times the hierarchical node search on one cache line of
// keys that stays resident: the compute of a node probe without its
// memory access. The line holds evenly spaced dataset keys and the MAX
// fence, as an inner node does.
func (l *ladder) simdSearch() {
	line := make([]uint64, keys.PerLine[uint64]())
	for i := range line {
		line[i] = l.pairs[(i+1)*len(l.pairs)/(len(line)+1)].Key
	}
	line[len(line)-1] = keys.Max[uint64]()
	sink := 0
	l.blockRung("simd.search", "", func(_ int, q uint64) { sink += simd.Search(simd.Hierarchical, line, q) })
	l.out.Attempted++
	if sink < 0 {
		l.failf("simd.search: negative slot sum")
	}
	l.set("simd.search_ns", "simd.search")
}
