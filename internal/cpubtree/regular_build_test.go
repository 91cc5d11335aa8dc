package cpubtree

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// regularImagesGolden holds SHA-256 digests of regular-tree images, one
// "<digest>  <name>" line per build of checkRegularBuildIndependentOfThreads.
// The digests were taken from the serial, append-grown bulk load that
// preceded the parallel one, so they pin the parallel build to it.
const regularImagesGolden = "testdata/regular_images.sha256"

// TestRegularBuildIndependentOfThreads pins the regular tree's bulk load
// to one result at every worker count: the serialized image is the same
// at 1, 2 and 7 threads and matches the committed digest, and every
// malformed input fails with the same error, naming the first bad index
// even when it sits on a chunk boundary between workers.
func TestRegularBuildIndependentOfThreads(t *testing.T) {
	want := readRegularImagesGolden(t)
	got := map[string]string{}
	t.Run("uint64", func(t *testing.T) { checkRegularBuildIndependentOfThreads[uint64](t, got) })
	t.Run("uint32", func(t *testing.T) { checkRegularBuildIndependentOfThreads[uint32](t, got) })
	if t.Failed() {
		return
	}
	var table strings.Builder
	for _, name := range regularImageNames() {
		fmt.Fprintf(&table, "%s  %s\n", got[name], name)
	}
	for _, name := range regularImageNames() {
		if got[name] != want[name] {
			t.Fatalf("image %s has digest %s, golden %s has %q; the full table is:\n%s",
				name, got[name], regularImagesGolden, want[name], table.String())
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden %s has %d digests, the test builds %d; the full table is:\n%s",
			regularImagesGolden, len(want), len(got), table.String())
	}
}

var (
	regularBuildThreads = []int{1, 2, 7}
	regularBuildFills   = []float64{1.0, 0.5, 0.875}
)

// regularBuildLeafCounts are the leaf counts each build is sized to: a
// few leaves, the largest count that fills inline, and the first counts
// that fan out, the last with a partial final leaf. Fanned-out counts
// put chunk edges at 2, 7 and every -cpu core count.
var regularBuildLeafCounts = []struct {
	leaves  int
	partial bool
}{{3, true}, {2047, false}, {2048, false}, {2049, true}}

// regularBuildSize returns the pair count of a build with the given leaf
// count: full leaves, or one pair in the last leaf when partial.
func regularBuildSize(perLeaf, leaves int, partial bool) int {
	if partial {
		return (leaves-1)*perLeaf + 1
	}
	return leaves * perLeaf
}

func regularImageNames() []string {
	var names []string
	for _, kt := range []string{"uint64", "uint32"} {
		for _, fill := range regularBuildFills {
			for _, lc := range regularBuildLeafCounts {
				names = append(names, regularImageName(kt, fill, lc.leaves, lc.partial))
			}
		}
	}
	return names
}

func regularImageName(kt string, fill float64, leaves int, partial bool) string {
	name := fmt.Sprintf("%s/fill=%g/leaves=%d", kt, fill, leaves)
	if partial {
		name += "/partial"
	}
	return name
}

func readRegularImagesGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(regularImagesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 2 {
			t.Fatalf("%s: malformed line %q", regularImagesGolden, sc.Text())
		}
		want[fs[1]] = fs[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func regularImageDigest[K keys.Key](t *testing.T, pairs []keys.Pair[K], cfg Config) string {
	t.Helper()
	tr, err := BuildRegular(pairs, cfg)
	if err != nil {
		t.Fatalf("BuildRegular(%d pairs, threads=%d, fill=%g): %v", len(pairs), cfg.Threads, cfg.LeafFill, err)
	}
	h := sha256.New()
	if _, err := tr.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkRegularBuildIndependentOfThreads[K keys.Key](t *testing.T, got map[string]string) {
	kt := fmt.Sprintf("uint%d", 8*keys.Size[K]())
	leafCap := keys.PerLine[K]() * keys.PerLine[K]() * keys.PerLine[K]() / 2
	maxN := 0
	for _, fill := range regularBuildFills {
		for _, lc := range regularBuildLeafCounts {
			maxN = max(maxN, regularBuildSize(int(float64(leafCap)*fill), lc.leaves, lc.partial))
		}
	}
	all := workload.Dataset[K](workload.Uniform, maxN, 42)
	for _, fill := range regularBuildFills {
		perLeaf := int(float64(leafCap) * fill)
		for _, lc := range regularBuildLeafCounts {
			pairs := all[:regularBuildSize(perLeaf, lc.leaves, lc.partial)]
			name := regularImageName(kt, fill, lc.leaves, lc.partial)
			for _, th := range regularBuildThreads {
				d := regularImageDigest(t, pairs, Config{Threads: th, LeafFill: fill})
				if th == regularBuildThreads[0] {
					got[name] = d
				} else if d != got[name] {
					t.Fatalf("%s: image at %d threads differs from 1 thread", name, th)
				}
			}
		}
	}

	// Error inputs on a size every thread count splits: 2049 leaves of
	// 128 pairs, the last holding one pair.
	perLeaf := 128
	cfg := Config{LeafFill: float64(perLeaf) / float64(leafCap)}
	leaves := 2049
	n := regularBuildSize(perLeaf, leaves, true)
	swapAt := func(i int) func([]keys.Pair[K]) {
		return func(p []keys.Pair[K]) { p[i-1].Key, p[i].Key = p[i].Key, p[i-1].Key }
	}
	unsorted := func(i int) string { return fmt.Sprintf("cpubtree: pairs not sorted/distinct at %d", i) }
	type errCase struct {
		name   string
		n      int
		mutate func([]keys.Pair[K])
		want   string
	}
	cases := []errCase{
		{"empty", 0, func([]keys.Pair[K]) {}, "cpubtree: empty dataset"},
		{"descending at 1", n, swapAt(1), unsorted(1)},
		{"descending in the last leaf", n, swapAt(n - 1), unsorted(n - 1)},
		{"duplicate", n, func(p []keys.Pair[K]) { p[n/2].Key = p[n/2-1].Key }, unsorted(n / 2)},
		{"MAX last and unsorted earlier", n, func(p []keys.Pair[K]) {
			p[n-1].Key = keys.Max[K]()
			swapAt(100)(p)
		}, unsorted(100)},
		{"MAX last", n, func(p []keys.Pair[K]) { p[n-1].Key = keys.Max[K]() }, "cpubtree: key MAX is reserved as sentinel"},
	}
	for _, w := range regularBuildThreads[1:] {
		b := (leaves + w - 1) / w * perLeaf // first pair of the second worker's range
		cases = append(cases,
			errCase{fmt.Sprintf("descending on the %d-thread chunk boundary", w), n, swapAt(b), unsorted(b)},
			errCase{fmt.Sprintf("descending just inside the %d-thread chunk boundary", w), n, swapAt(b - 1), unsorted(b - 1)},
		)
	}
	for _, c := range cases {
		pairs := append([]keys.Pair[K](nil), all[:c.n]...)
		c.mutate(pairs)
		for _, th := range regularBuildThreads {
			cfg.Threads = th
			_, err := BuildRegular(pairs, cfg)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s %s, threads=%d: err = %v, want %q", kt, c.name, th, err, c.want)
			}
		}
	}
}

// TestRegularCapacityRule pins the one capacity rule of the node pools:
// after BuildRegular and ReadRegular every pool has room for
// reserve(nodes) nodes, so the first leaf split after a recovery
// appends in place instead of moving the pools.
func TestRegularCapacityRule(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 42)
	built, err := BuildRegular(pairs, Config{}) // full leaves: one insert splits
	if err != nil {
		t.Fatal(err)
	}
	checkPoolCapacities(t, "BuildRegular", built)

	var img bytes.Buffer
	if _, err := built.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRegular[uint64](bytes.NewReader(img.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkPoolCapacities(t, "ReadRegular", loaded)
	checkSplitInPlace(t, "ReadRegular", loaded, pairs)
}

func checkPoolCapacities(t *testing.T, from string, tr *RegularTree[uint64]) {
	t.Helper()
	pools := []struct {
		name       string
		len, cap   int
		nodes, per int
	}{
		{"upper", len(tr.upper), cap(tr.upper), len(tr.upperMeta), tr.nodeSlots},
		{"upperMeta", len(tr.upperMeta), cap(tr.upperMeta), len(tr.upperMeta), 1},
		{"lastMeta", len(tr.lastMeta), cap(tr.lastMeta), len(tr.lastMeta), 1},
		{"leafPool", len(tr.leafPool), cap(tr.leafPool), tr.nleaves, tr.leafSlots},
		{"recPool", len(tr.recPool), cap(tr.recPool), tr.nleaves, 1},
	}
	// The last-level pool is paged: every page but the last is full and
	// every page has room to a full page.
	for p, pg := range tr.last {
		if nodes := min(len(tr.lastMeta)-p*LastPageNodes, LastPageNodes); len(pg) != nodes*tr.nodeSlots || cap(pg) != LastPageNodes*tr.nodeSlots {
			t.Fatalf("%s: last-level page %d holds %d slots of %d, want %d nodes of a full page", from, p, len(pg), cap(pg), nodes)
		}
	}
	for _, p := range pools {
		if p.len != p.nodes*p.per {
			t.Fatalf("%s: %s holds %d slots for %d nodes of %d", from, p.name, p.len, p.nodes, p.per)
		}
		if want := reserve(p.nodes) * p.per; p.cap != want {
			t.Errorf("%s: cap(%s) = %d, want reserve(%d)*%d = %d", from, p.name, p.cap, p.nodes, p.per, want)
		}
	}
}

// checkSplitInPlace inserts a key into the first (full) leaf, which
// splits it, and checks that no pool's backing array moved.
func checkSplitInPlace(t *testing.T, from string, tr *RegularTree[uint64], pairs []keys.Pair[uint64]) {
	t.Helper()
	before := [...]*uint64{&tr.upper[0], &tr.last[0][0], &tr.leafPool[0]}
	metaBefore := [...]*nodeMeta{&tr.upperMeta[0], &tr.lastMeta[0]}
	leafMetaBefore := &tr.recPool[0]
	leaves := tr.nleaves
	k := pairs[0].Key + 1 // pairs are sparse: pairs[1].Key > k
	structural, err := tr.Insert(k, 7)
	if err != nil || !structural {
		t.Fatalf("%s: Insert(%d) = structural %v, err %v; want a split", from, k, structural, err)
	}
	if tr.nleaves != leaves+1 {
		t.Fatalf("%s: split grew the leaf pool from %d to %d nodes", from, leaves, tr.nleaves)
	}
	after := [...]*uint64{&tr.upper[0], &tr.last[0][0], &tr.leafPool[0]}
	for i, name := range []string{"upper", "last", "leafPool"} {
		if before[i] != after[i] {
			t.Errorf("%s: the split moved %s", from, name)
		}
	}
	if metaBefore != [...]*nodeMeta{&tr.upperMeta[0], &tr.lastMeta[0]} || leafMetaBefore != &tr.recPool[0] {
		t.Errorf("%s: the split moved a metadata pool", from)
	}
	if v, ok := tr.Lookup(k); !ok || v != 7 {
		t.Fatalf("%s: Lookup(%d) after the split = %d, %v", from, k, v, ok)
	}
}
