package core

import (
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
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

// TestImplicitMirrorCopiesNoISegment pins the aliased device replica:
// the I-segment mirror of an implicit Build from 2^16 line-aligned pairs
// reads the host's inner array instead of copying it, so Build allocates
// less than the host tree's own build plus one I-segment. A mirror that
// copied the inner array allocated that I-segment on top.
func TestImplicitMirrorCopiesNoISegment(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 5)
	cfg := cpubtree.Config{Fanout: keys.PerLine[uint64]()}
	host := allocatedBytes(func() {
		if _, err := cpubtree.BuildImplicit(pairs, cfg); err != nil {
			t.Fatal(err)
		}
	})
	var tr *Tree[uint64]
	var err error
	got := allocatedBytes(func() { tr, err = Build(pairs, Options{Variant: Implicit}) })
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	iseg := uint64(tr.BuildStats().ISegBytes)
	t.Logf("Build allocated %d bytes, the host tree's build %d; I-segment %d bytes", got, host, iseg)
	if got >= host+iseg {
		t.Fatalf("Build allocated %d bytes, the host build %d: the mirror allocated at least the %d-byte I-segment", got, host, iseg)
	}
	if err := tr.VerifyReplica(); err != nil {
		t.Fatal(err)
	}
}
