package core

import (
	"testing"

	"hbtree/internal/workload"
)

// TestAlignedImplicitBuildCopiesNoLeaves pins the zero-copy bulk load:
// an implicit Build from 2^16 line-aligned pairs keeps them as its leaf
// segment, so it allocates less than the leaf bytes — the I-segment, its
// device replica and the line maxima are what remain. A build that
// copied the pairs allocated more than the leaf bytes on their own.
func TestAlignedImplicitBuildCopiesNoLeaves(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 5)
	var tr *Tree[uint64]
	var err error
	got := allocatedBytes(func() { tr, err = Build(pairs, Options{Variant: Implicit}) })
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	leaves := uint64(tr.Stats().LeafBytes)
	t.Logf("Build of %d aligned pairs allocated %d bytes; leaf segment %d bytes", len(pairs), got, leaves)
	if got >= leaves {
		t.Fatalf("Build allocated %d bytes, want less than the %d-byte leaf segment", got, leaves)
	}
	for _, i := range []int{0, len(pairs) / 2, len(pairs) - 1} {
		if v, ok := tr.Lookup(pairs[i].Key); !ok || v != pairs[i].Value {
			t.Fatalf("Lookup(%d) = (%d, %v)", pairs[i].Key, v, ok)
		}
	}
}
