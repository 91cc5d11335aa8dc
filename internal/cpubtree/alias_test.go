package cpubtree

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// The implicit tree's leaf lines interleave keys and values exactly as a
// []keys.Pair does, so a build whose pairs fill whole lines from a line
// boundary keeps them as its leaf segment instead of copying them. These
// tests pin when that happens, that it changes nothing observable, and
// that the build never writes into the caller's pairs.

// aliases reports whether t's leaf segment overlaps the memory of pairs.
func aliases[K keys.Key](t *ImplicitTree[K], pairs []keys.Pair[K]) bool {
	if len(t.leaves) == 0 || len(pairs) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&pairs[0])), uintptr(unsafe.Pointer(&pairs[len(pairs)-1]))+unsafe.Sizeof(pairs[0])
	llo := uintptr(unsafe.Pointer(&t.leaves[0]))
	lhi := llo + uintptr(len(t.leaves))*unsafe.Sizeof(t.leaves[0])
	return llo < hi && lo < lhi
}

// misaligned returns a copy of pairs that starts one pair past a 64-byte
// boundary, so a build from it cannot keep it as its leaf segment.
func misaligned[K keys.Key](t testing.TB, pairs []keys.Pair[K]) []keys.Pair[K] {
	t.Helper()
	buf := make([]keys.Pair[K], len(pairs)+keys.PerLine[K]()/2)
	if uintptr(unsafe.Pointer(&buf[0]))%64 != 0 {
		t.Fatal("test buffer is not line-aligned")
	}
	out := buf[1 : 1+len(pairs)]
	copy(out, pairs)
	return out
}

// lineAligned returns a line-aligned dataset of n pairs.
func lineAligned[K keys.Key](t testing.TB, n int) []keys.Pair[K] {
	t.Helper()
	pairs := workload.Dataset[K](workload.Uniform, n, 42)
	if uintptr(unsafe.Pointer(&pairs[0]))%64 != 0 {
		t.Fatalf("a %d-pair dataset is not line-aligned", n)
	}
	return pairs
}

// TestImplicitAliasesLineAlignedPairs: a line-aligned dataset of whole
// lines becomes the leaf segment itself; a ragged last line, a start one
// pair past a line boundary and inputs smaller than a line are copied.
// Either way every key reads back, and the pairs are unchanged — the
// build only reads them, which a concurrent reader checks under the
// race detector.
func TestImplicitAliasesLineAlignedPairs(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { checkAliasing[uint64](t) })
	t.Run("uint32", func(t *testing.T) { checkAliasing[uint32](t) })
}

func checkAliasing[K keys.Key](t *testing.T) {
	pl := keys.PerLine[K]() / 2
	n := 4096 * pl
	aligned := lineAligned[K](t, n)
	cases := []struct {
		name  string
		pairs []keys.Pair[K]
		alias bool
	}{
		{"line-aligned", aligned, true},
		{"ragged last line", aligned[:n-1], false},
		{"offset by one pair", aligned[1 : 1+n-pl], false},
		{"one pair", aligned[:1], false},
		{"less than a line", aligned[:pl-1], false},
	}
	for _, c := range cases {
		want := slices.Clone(c.pairs)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum K
			for {
				for _, p := range c.pairs {
					sum += p.Key ^ p.Value
				}
				select {
				case <-stop:
					_ = sum
					return
				default:
				}
			}
		}()
		tr, err := BuildImplicit(c.pairs, Config{Threads: 4})
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := aliases(tr, c.pairs); got != c.alias {
			t.Errorf("%s: leaf segment aliases the pairs = %v, want %v", c.name, got, c.alias)
		}
		if c.alias && &tr.leaves[0] != &c.pairs[0].Key {
			t.Errorf("%s: leaf segment does not start at the first pair", c.name)
		}
		if !slices.Equal(c.pairs, want) {
			t.Errorf("%s: the build modified the caller's pairs", c.name)
		}
		for _, p := range c.pairs {
			if v, ok := tr.Lookup(p.Key); !ok || v != p.Value {
				t.Fatalf("%s: Lookup(%d) = (%d, %v), want (%d, true)", c.name, p.Key, v, ok, p.Value)
			}
		}
		if got := tr.RangeQuery(0, len(c.pairs)+1, nil); !slices.Equal(got, c.pairs) {
			t.Fatalf("%s: a full range returned %d pairs, want the %d built", c.name, len(got), len(c.pairs))
		}
	}
}

// TestImplicitAliasedImageMatchesCopied: an aliased build and a copied
// build of the same pairs serialise to the same bytes, in the uniform
// and the tuned geometry.
func TestImplicitAliasedImageMatchesCopied(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { checkAliasedImage[uint64](t) })
	t.Run("uint32", func(t *testing.T) { checkAliasedImage[uint32](t) })
}

func checkAliasedImage[K keys.Key](t *testing.T) {
	kpn := keys.PerLine[K]()
	n := 3 * 2048 * kpn / 2
	aligned := lineAligned[K](t, n)
	copied := misaligned(t, aligned)
	for name, cfg := range map[string]Config{
		"uniform": {},
		"tuned":   {Fanout: kpn, RootWidths: []int{4 * kpn, 2 * kpn}},
	} {
		var images [2][]byte
		for i, pairs := range [][]keys.Pair[K]{aligned, copied} {
			tr, err := BuildImplicit(pairs, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := aliases(tr, pairs); got != (i == 0) {
				t.Fatalf("%s: build %d aliases its pairs = %v", name, i, got)
			}
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			images[i] = buf.Bytes()
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Errorf("%s: the aliased build's image differs from the copied build's", name)
		}
	}
}

// TestImplicitAliasedBuildRejectsBadPairs: unsorted, duplicate and
// MAX-key inputs fail with the same error, naming the same first bad
// index, whether the build would alias the pairs or copy them, at one
// worker and at four.
func TestImplicitAliasedBuildRejectsBadPairs(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { checkAliasedValidation[uint64](t) })
	t.Run("uint32", func(t *testing.T) { checkAliasedValidation[uint32](t) })
}

func checkAliasedValidation[K keys.Key](t *testing.T) {
	pl := keys.PerLine[K]() / 2
	n := 3 * 2048 * pl
	swapAt := func(i int) func([]keys.Pair[K]) {
		return func(p []keys.Pair[K]) { p[i-1].Key, p[i].Key = p[i].Key, p[i-1].Key }
	}
	unsorted := func(i int) string { return fmt.Sprintf("cpubtree: pairs not sorted/distinct at %d", i) }
	cases := []struct {
		name   string
		mutate func([]keys.Pair[K])
		want   string
	}{
		{"descending at 1", swapAt(1), unsorted(1)},
		{"descending on the 4-thread chunk boundary", swapAt(n / 4), unsorted(n / 4)},
		{"descending in last line", swapAt(n - 1), unsorted(n - 1)},
		{"duplicate", func(p []keys.Pair[K]) { p[n/2].Key = p[n/2-1].Key }, unsorted(n / 2)},
		{"MAX last", func(p []keys.Pair[K]) { p[n-1].Key = keys.Max[K]() }, "cpubtree: key MAX is reserved as sentinel"},
		{"MAX inside", func(p []keys.Pair[K]) { p[n/3].Key = keys.Max[K]() }, unsorted(n/3 + 1)},
	}
	for _, c := range cases {
		aligned := lineAligned[K](t, n)
		c.mutate(aligned)
		copied := misaligned(t, aligned)
		for _, th := range []int{1, 4} {
			for path, pairs := range map[string][]keys.Pair[K]{"aliased": aligned, "copied": copied} {
				_, err := BuildImplicit(pairs, Config{Threads: th})
				if err == nil || err.Error() != c.want {
					t.Errorf("%s, %s, threads=%d: err = %v, want %q", c.name, path, th, err, c.want)
				}
			}
		}
	}
}
