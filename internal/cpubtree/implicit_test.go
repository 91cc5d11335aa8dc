package cpubtree

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

func buildImplicit64(t testing.TB, n int, cfg Config) (*ImplicitTree[uint64], []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
	tr, err := BuildImplicit(pairs, cfg)
	if err != nil {
		t.Fatalf("BuildImplicit: %v", err)
	}
	return tr, pairs
}

func TestImplicitLookupAllKeys(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 36, 37, 1000, 20000} {
		tr, pairs := buildImplicit64(t, n, Config{})
		for _, p := range pairs {
			v, ok := tr.Lookup(p.Key)
			if !ok || v != p.Value {
				t.Fatalf("n=%d: Lookup(%d) = (%d,%v), want (%d,true)", n, p.Key, v, ok, p.Value)
			}
		}
	}
}

func TestImplicitLookupMisses(t *testing.T) {
	tr, pairs := buildImplicit64(t, 5000, Config{})
	present := make(map[uint64]bool, len(pairs))
	for _, p := range pairs {
		present[p.Key] = true
	}
	r := workload.NewRNG(7)
	for i := 0; i < 5000; i++ {
		q := r.Uint64()
		if q == keys.Max[uint64]() || present[q] {
			continue
		}
		if _, ok := tr.Lookup(q); ok {
			t.Fatalf("Lookup(%d) found a key not in the dataset", q)
		}
	}
	// Boundary queries.
	if _, ok := tr.Lookup(0); present[0] != ok {
		t.Fatal("Lookup(0) mismatch")
	}
}

func TestImplicitFanoutVariants(t *testing.T) {
	// The CPU-optimized fanout (9) and the HB+ fanout (8) must both
	// produce correct trees (Section 5.2).
	for _, fanout := range []int{8, 9, 2, 5} {
		pairs := workload.Dataset[uint64](workload.Uniform, 3000, 11)
		tr, err := BuildImplicit(pairs, Config{Fanout: fanout})
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if tr.Fanout() != fanout {
			t.Fatalf("Fanout() = %d, want %d", tr.Fanout(), fanout)
		}
		for _, p := range pairs {
			if v, ok := tr.Lookup(p.Key); !ok || v != p.Value {
				t.Fatalf("fanout %d: Lookup(%d) failed", fanout, p.Key)
			}
		}
	}
}

func TestImplicit32Bit(t *testing.T) {
	pairs := workload.Dataset[uint32](workload.Uniform, 10000, 5)
	for _, fanout := range []int{0, 16} { // 0 -> default 17
		tr, err := BuildImplicit(pairs, Config{Fanout: fanout})
		if err != nil {
			t.Fatalf("BuildImplicit32: %v", err)
		}
		for _, p := range pairs {
			if v, ok := tr.Lookup(p.Key); !ok || v != p.Value {
				t.Fatalf("32-bit Lookup(%d) failed", p.Key)
			}
		}
	}
}

func TestImplicitHeightBound(t *testing.T) {
	// H = ceil(log_9(N/4 + 1)) for the 64-bit CPU-optimized tree
	// (Section 4.1); our builder may use one less level when the last
	// line is partially filled, and never more.
	for _, n := range []int{8, 100, 5000, 200000} {
		tr, _ := buildImplicit64(t, n, Config{})
		want := int(math.Ceil(math.Log(float64(n)/4+1) / math.Log(9)))
		if want < 1 {
			want = 1
		}
		if tr.Height() > want {
			t.Fatalf("n=%d: height %d exceeds paper bound %d", n, tr.Height(), want)
		}
		if tr.Height() < want-1 {
			t.Fatalf("n=%d: height %d far below paper bound %d", n, tr.Height(), want)
		}
	}
}

func TestImplicitSpaceEquation(t *testing.T) {
	// L_space = N / P_L * S_L (Equation 1) for a full tree.
	n := 4096 // multiple of P_L=4: tree exactly full at the leaf level
	tr, _ := buildImplicit64(t, n, Config{})
	st := tr.Stats()
	wantLeaf := int64(n) / 4 * 64
	if st.LeafBytes != wantLeaf {
		t.Fatalf("LeafBytes = %d, want %d", st.LeafBytes, wantLeaf)
	}
	if st.LinesPerQuery != tr.Height()+1 {
		t.Fatalf("LinesPerQuery = %d, want H+1 = %d", st.LinesPerQuery, tr.Height()+1)
	}
}

func TestImplicitBatchMatchesSingle(t *testing.T) {
	tr, pairs := buildImplicit64(t, 30000, Config{Threads: 4})
	qs := workload.SearchInput(pairs, len(pairs), 9)
	vals := make([]uint64, len(qs))
	fnd := make([]bool, len(qs))
	tr.LookupBatch(qs, vals, fnd)
	for i, q := range qs {
		v, ok := tr.Lookup(q)
		if ok != fnd[i] || v != vals[i] {
			t.Fatalf("batch[%d] (%d,%v) != single (%d,%v)", i, vals[i], fnd[i], v, ok)
		}
	}
}

func TestImplicitPipelineDepths(t *testing.T) {
	tr, pairs := buildImplicit64(t, 5000, Config{})
	qs := workload.SearchInput(pairs, 2000, 3)
	want := make([]uint64, len(qs))
	for i, q := range qs {
		want[i], _ = tr.Lookup(q)
	}
	for _, p := range []int{-1, 1, 2, 7, 16, 32} {
		cfg := tr.Config()
		cfg.PipelineDepth = p
		tr2, err := BuildImplicit(pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint64, len(qs))
		fnd := make([]bool, len(qs))
		tr2.lookupPipelined(qs, vals, fnd)
		for i := range qs {
			if !fnd[i] || vals[i] != want[i] {
				t.Fatalf("pipeline depth %d: query %d wrong", p, i)
			}
		}
	}
}

func TestImplicitRangeQuery(t *testing.T) {
	tr, pairs := buildImplicit64(t, 10000, Config{})
	r := workload.NewRNG(21)
	for iter := 0; iter < 200; iter++ {
		start := r.Intn(len(pairs))
		count := 1 + r.Intn(40)
		out := tr.RangeQuery(pairs[start].Key, count, nil)
		wantN := count
		if start+count > len(pairs) {
			wantN = len(pairs) - start
		}
		if len(out) != wantN {
			t.Fatalf("range(%d,%d): got %d results, want %d", start, count, len(out), wantN)
		}
		for j, p := range out {
			if p != pairs[start+j] {
				t.Fatalf("range result %d = %+v, want %+v", j, p, pairs[start+j])
			}
		}
	}
	// Range starting between keys begins at the successor.
	out := tr.RangeQuery(pairs[10].Key+1, 3, nil)
	if len(out) == 0 || out[0] != pairs[11] {
		t.Fatalf("between-keys range start = %+v, want %+v", out, pairs[11])
	}
}

func TestImplicitRebuild(t *testing.T) {
	tr, _ := buildImplicit64(t, 4000, Config{})
	pairs2 := workload.Dataset[uint64](workload.Uniform, 6000, 99)
	if err := tr.Rebuild(pairs2); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs2 {
		if v, ok := tr.Lookup(p.Key); !ok || v != p.Value {
			t.Fatalf("post-rebuild Lookup(%d) failed", p.Key)
		}
	}
}

func TestImplicitBuildErrors(t *testing.T) {
	if _, err := BuildImplicit[uint64](nil, Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	dup := []keys.Pair[uint64]{{Key: 1}, {Key: 1}}
	if _, err := BuildImplicit(dup, Config{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	unsorted := []keys.Pair[uint64]{{Key: 2}, {Key: 1}}
	if _, err := BuildImplicit(unsorted, Config{}); err == nil {
		t.Fatal("unsorted keys accepted")
	}
	sentinel := []keys.Pair[uint64]{{Key: keys.Max[uint64]()}}
	if _, err := BuildImplicit(sentinel, Config{}); err == nil {
		t.Fatal("sentinel key accepted")
	}
	if _, err := BuildImplicit([]keys.Pair[uint64]{{Key: 1}}, Config{Fanout: 1}); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := BuildImplicit([]keys.Pair[uint64]{{Key: 1}}, Config{Fanout: 10}); err == nil {
		t.Fatal("fanout > kpn+1 accepted")
	}
}

// TestImplicitQuickLookup property-tests lookups against a map oracle on
// arbitrary key sets.
func TestImplicitQuickLookup(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		size := int(n)%2000 + 1
		pairs := workload.Dataset[uint64](workload.Uniform, size, seed)
		tr, err := BuildImplicit(pairs, Config{})
		if err != nil {
			return false
		}
		oracle := make(map[uint64]uint64, size)
		for _, p := range pairs {
			oracle[p.Key] = p.Value
		}
		r := workload.NewRNG(seed ^ 0xfeed)
		for i := 0; i < 200; i++ {
			var q uint64
			if i%2 == 0 {
				q = pairs[r.Intn(size)].Key
			} else {
				q = r.Uint64()
				if q == keys.Max[uint64]() {
					q--
				}
			}
			v, ok := tr.Lookup(q)
			wv, wok := oracle[q]
			if ok != wok || (ok && v != wv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestImplicitBuildIndependentOfThreads pins the parallel bulk load to
// the serial one: at every worker count the serialized image is the
// same, and every malformed input fails with the same error, naming the
// first out-of-order index even when the disorder sits on a chunk
// boundary between workers.
func TestImplicitBuildIndependentOfThreads(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { checkBuildIndependentOfThreads[uint64](t) })
	t.Run("uint32", func(t *testing.T) { checkBuildIndependentOfThreads[uint32](t) })
}

func checkBuildIndependentOfThreads[K keys.Key](t *testing.T) {
	threads := []int{1, 2, 7}
	pl := keys.PerLine[K]() / 2
	inline := 2 * 1024 * pl // pairs filling the first line count that fans out
	sizes := []int{1000*pl + 3, inline - pl, inline - 1, inline, inline + 1, 3*inline + 5}
	geoms := map[string]Config{
		"uniform": {},
		"tuned":   {Fanout: keys.PerLine[K](), RootWidths: []int{4 * keys.PerLine[K](), 2 * keys.PerLine[K]()}},
	}
	for name, geom := range geoms {
		for _, n := range sizes {
			pairs := workload.Dataset[K](workload.Uniform, n, 42)
			var want []byte
			for _, th := range threads {
				cfg := geom
				cfg.Threads = th
				tr, err := BuildImplicit(pairs, cfg)
				if err != nil {
					t.Fatalf("%s n=%d threads=%d: %v", name, n, th, err)
				}
				var buf bytes.Buffer
				if _, err := tr.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s n=%d: image at %d threads differs from 1 thread", name, n, th)
				}
			}
		}
	}

	// Error inputs on a size every thread count splits: the first
	// out-of-order index must not depend on which worker sees it.
	n := 3*inline + 5
	lines := (n + pl - 1) / pl
	swapAt := func(i int) func([]keys.Pair[K]) {
		return func(p []keys.Pair[K]) { p[i-1].Key, p[i].Key = p[i].Key, p[i-1].Key }
	}
	unsorted := func(i int) string { return fmt.Sprintf("cpubtree: pairs not sorted/distinct at %d", i) }
	type errCase struct {
		name   string
		mutate func([]keys.Pair[K])
		want   string
	}
	cases := []errCase{
		{"descending at 1", swapAt(1), unsorted(1)},
		{"descending in last line", swapAt(n - 1), unsorted(n - 1)},
		{"duplicate", func(p []keys.Pair[K]) { p[n/2].Key = p[n/2-1].Key }, unsorted(n / 2)},
		{"MAX last and unsorted earlier", func(p []keys.Pair[K]) {
			p[n-1].Key = keys.Max[K]()
			swapAt(100)(p)
		}, unsorted(100)},
		{"MAX last", func(p []keys.Pair[K]) { p[n-1].Key = keys.Max[K]() }, "cpubtree: key MAX is reserved as sentinel"},
	}
	for _, w := range threads[1:] {
		b := (lines + w - 1) / w * pl // first pair of the second worker's range
		cases = append(cases, errCase{fmt.Sprintf("descending on the %d-thread chunk boundary", w), swapAt(b), unsorted(b)})
	}
	for _, c := range cases {
		pairs := workload.Dataset[K](workload.Uniform, n, 42)
		c.mutate(pairs)
		for _, th := range threads {
			_, err := BuildImplicit(pairs, Config{Threads: th})
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, threads=%d: err = %v, want %q", c.name, th, err, c.want)
			}
		}
	}
}
