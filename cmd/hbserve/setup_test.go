package main

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"hbtree"
)

// TestSetupCollectsBeforeServing pins the heap goal hbserve starts
// serving under: set-up ends with a collection, so the goal it leaves is
// about twice the live heap — the index, as a collection right after
// measures it — and not twice the index and the seed pairs, which the
// last collection during set-up still marked.
func TestSetupCollectsBeforeServing(t *testing.T) {
	s, err := setup(hbtree.Options{Variant: hbtree.Regular, LeafFill: 0.875}, serveConfig{shards: 1},
		1<<20, 5, hbtree.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.shutdown()
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(goal)
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	g, l := goal[0].Value.Uint64(), live[0].Value.Uint64()
	if ratio := float64(g) / float64(l); ratio > 2.2 {
		t.Fatalf("set-up left a heap goal of %d bytes, %.2f x the %d-byte live heap; want at most 2.2 x", g, ratio, l)
	}
	t.Logf("after set-up: heap goal %d bytes, live heap %d bytes", g, l)
}
