package hbtree_test

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"hbtree"
	"hbtree/internal/simd"
)

// Fuzz targets for the security-sensitive surfaces: the node-search
// kernels (index arithmetic) and the snapshot decoder (untrusted bytes).
// The seed corpus runs under plain `go test`; `go test -fuzz=Fuzz...`
// explores further.

func FuzzNodeSearchKernels(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8), uint64(4))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i, q uint64) {
		line := []uint64{a, b, c, d, e, g, h, i}
		sort.Slice(line, func(x, y int) bool { return line[x] < line[y] })
		want := sort.Search(8, func(x int) bool { return q <= line[x] })
		if got := simd.SearchSequential(line, q); got != want {
			t.Fatalf("sequential: %d != %d", got, want)
		}
		if got := simd.SearchLinear(line, q); got != want {
			t.Fatalf("linear: %d != %d", got, want)
		}
		if got := simd.SearchHierarchical(line, q); got != want {
			t.Fatalf("hier: %d != %d", got, want)
		}
	})
}

// snapshotImage returns the WriteTo image of a tree built from n
// generated pairs under opt.
func snapshotImage(f *testing.F, n int, opt hbtree.Options) []byte {
	tree, err := hbtree.New(hbtree.GeneratePairs[uint64](n, 1), opt)
	if err != nil {
		f.Fatal(err)
	}
	defer tree.Close()
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzSnapshotDecoder(f *testing.F) {
	// Seed with a valid snapshot and a few mutations of it.
	valid := snapshotImage(f, 512, hbtree.Options{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(mut[8:], ^uint64(0))
	f.Add(mut)

	// Regular trees of height 2 (8 full leaves) and 4 (6 leaves of 7
	// pairs, 2 children per upper node), and each with its first upper
	// node's first child reference pointed outside every pool. The
	// references of upper node 0 start after the variant byte, the
	// 6-byte header, five geometry words, the pool's length prefix and
	// the node's index and key lines (8+64 keys).
	const firstRef = 1 + 6 + 5*8 + 8 + (8+64)*8
	for _, shape := range []struct {
		n    int
		fill float64
	}{{2000, 1}, {40, 0.03}} {
		reg := snapshotImage(f, shape.n, hbtree.Options{Variant: hbtree.Regular, LeafFill: shape.fill})
		f.Add(reg)
		mut := append([]byte(nil), reg...)
		binary.LittleEndian.PutUint64(mut[firstRef:], 1_000_000)
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are fine. When the
		// decoder accepts the image, the tree must answer lookups
		// without crashing.
		lt, err := hbtree.Load[uint64](bytes.NewReader(data), hbtree.Options{})
		if err != nil {
			return
		}
		defer lt.Close()
		lt.Lookup(42)
		lt.RangeQuery(0, 4, nil)
	})
}
