package gpusim

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/platform"
	"hbtree/internal/workload"
)

func dev() *Device { return New(platform.M1().GPU) }

func TestMallocCapacity(t *testing.T) {
	d := dev()
	total := d.Config().MemBytes
	b1, err := Malloc[uint64](d, int(total/16))
	if err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != total/2 {
		t.Fatalf("used = %d", d.MemUsed())
	}
	if _, err := Malloc[uint64](d, int(total/8)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-allocation error = %v", err)
	}
	b1.Free()
	if d.MemUsed() != 0 {
		t.Fatal("free did not release")
	}
	b1.Free() // double free is a no-op
	if d.MemFree() != total {
		t.Fatal("MemFree wrong")
	}
}

func TestCopySemantics(t *testing.T) {
	d := dev()
	b, err := Malloc[uint64](d, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	dur, err := b.CopyFromHost(src)
	if err != nil || dur <= d.Config().TInit {
		t.Fatalf("H2D: %v %v", dur, err)
	}
	src[0] = 99 // device copy must be independent of host memory
	dst := make([]uint64, 8)
	if _, err := b.CopyToHost(dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[7] != 8 {
		t.Fatalf("D2H data wrong: %v", dst)
	}
	if _, err := b.CopyFromHost(make([]uint64, 9)); err == nil {
		t.Fatal("oversized H2D accepted")
	}
	if _, err := b.CopyToHost(make([]uint64, 9)); err == nil {
		t.Fatal("oversized D2H accepted")
	}
	c := d.Counters()
	if c.BytesH2D != 64 || c.BytesD2H != 64 {
		t.Fatalf("byte counters: %+v", c)
	}
}

func TestCopyRegion(t *testing.T) {
	d := dev()
	b, _ := MallocPaged[uint64](d, 16, 8)
	host := [][]uint64{make([]uint64, 8), make([]uint64, 8)}
	if _, err := b.Mirror(host); err != nil {
		t.Fatal(err)
	}
	// The host writes node 4 (elements 8 and 9) into a copy of page 1,
	// as it copies every page a replica holds before writing it; the
	// replica reads the old page until the node's sync.
	host[1] = slices.Clone(host[1])
	host[1][0], host[1][1] = 7, 7
	if b.Pages()[1][0] != 0 {
		t.Fatal("the replica read a host page it was not synced to")
	}
	if n, err := b.SyncNodes(host, []int32{4}, 2); err != nil || n != 1 {
		t.Fatalf("SyncNodes = %d, %v", n, err)
	}
	if pg := b.Pages(); pg[1][0] != 7 || pg[1][1] != 7 || pg[0][0] != 0 {
		t.Fatal("region copy wrong")
	}
	for _, bad := range []struct {
		node int32
		n    int
	}{{5, 3}, {-1, 1}, {2, 3}} { // past the end, negative, across a page
		if _, err := b.SyncNodes(host, []int32{bad.node}, bad.n); err == nil {
			t.Fatalf("region %+v accepted", bad)
		}
	}
	// A sync that meets a bad region leaves the buffer on its previous
	// pages, those of the regions charged before it included.
	host[0] = slices.Clone(host[0])
	host[0][0] = 5
	if n, err := b.SyncNodes(host, []int32{0, 8}, 2); err == nil || n != 1 {
		t.Fatalf("SyncNodes over a bad region = %d, %v", n, err)
	}
	if b.Pages()[0][0] != 0 {
		t.Fatal("a failed sync moved the buffer to a new page")
	}
	if cnt := d.Counters(); cnt.BytesH2D != 16*8+2*2*8 {
		t.Fatalf("H2D bytes %d, want one full image and two nodes", cnt.BytesH2D)
	}
}

func TestCopyDurationModel(t *testing.T) {
	d := dev()
	// T = T_init + bytes/BW; doubling the bytes doubles only the linear
	// part.
	d1 := d.CopyDuration(1 << 20)
	d2 := d.CopyDuration(2 << 20)
	lin1 := d1 - d.Config().TInit
	lin2 := d2 - d.Config().TInit
	if r := float64(lin2) / float64(lin1); r < 1.99 || r > 2.01 {
		t.Fatalf("copy cost not linear: %v", r)
	}
}

func TestKernelDurationRegimes(t *testing.T) {
	d := dev()
	// Large grids are bandwidth-bound: time scales ~linearly with work.
	t1 := d.KernelDuration(1<<14, 8, 1, 8, 1)
	t2 := d.KernelDuration(1<<15, 8, 1, 8, 1)
	r := (t2 - d.Config().KInit).Seconds() / (t1 - d.Config().KInit).Seconds()
	if r < 1.9 || r > 2.1 {
		t.Fatalf("bandwidth regime not linear: %v", r)
	}
	// Divergence derating slows the kernel down.
	if d.KernelDuration(1<<14, 8, 3, 8, 0.6) <= d.KernelDuration(1<<14, 8, 3, 8, 1) {
		t.Fatal("divergence penalty missing")
	}
	// Zero queries cost nothing.
	if d.KernelDuration(0, 8, 1, 8, 1) != 0 {
		t.Fatal("empty kernel has cost")
	}
	// Tiny grids are latency-bound: far above the pure bandwidth term.
	small := d.KernelDuration(1, 8, 1, 8, 1)
	if small < d.Config().KInit+8*d.Config().MemLatency {
		t.Fatalf("latency floor missing: %v", small)
	}
}

// buildImplicitHB builds an HB+-layout implicit tree (fanout 8) and
// returns the pieces a kernel needs.
func buildImplicitHB(t *testing.T, n int) (*cpubtree.ImplicitTree[uint64], ImplicitDesc, []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
	tr, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, levelOff, kpn, fanout := tr.InnerArray()
	off32 := make([]int32, len(levelOff))
	for i, o := range levelOff {
		off32[i] = int32(o)
	}
	desc := ImplicitDesc{LevelOff: off32, Kpn: kpn, Fanout: fanout, Height: tr.Height(), NumLeaves: tr.NumLeafLines()}
	return tr, desc, pairs
}

func TestImplicitKernelMatchesHostTraversal(t *testing.T) {
	tr, desc, pairs := buildImplicitHB(t, 30000)
	inner, _, _, _ := tr.InnerArray()
	d := dev()
	qs := workload.SearchInput(pairs, 8000, 3)
	out := make([]int32, len(qs))
	trans, err := ImplicitSearchKernel(d, inner, desc, qs, out, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trans != int64(len(qs))*int64(desc.Height) {
		t.Fatalf("transaction count %d", trans)
	}
	for i, q := range qs {
		if int(out[i]) != tr.SearchInner(q) {
			t.Fatalf("kernel leaf %d != host %d for key %d", out[i], tr.SearchInner(q), q)
		}
	}
}

func TestImplicitKernelResume(t *testing.T) {
	tr, desc, pairs := buildImplicitHB(t, 50000)
	inner, _, _, _ := tr.InnerArray()
	d := dev()
	qs := workload.SearchInput(pairs, 4000, 5)
	for D := 0; D < tr.Height(); D++ {
		starts := make([]int32, len(qs))
		for i, q := range qs {
			starts[i] = int32(tr.WalkToLevel(q, D))
		}
		out := make([]int32, len(qs))
		if _, err := ImplicitSearchKernel(d, inner, desc, qs, out, D, starts); err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if int(out[i]) != tr.SearchInner(q) {
				t.Fatalf("D=%d: resumed kernel diverges for key %d", D, q)
			}
		}
	}
}

func TestRegularKernelMatchesHostTraversal(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 120000, 7)
	tr, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	upper, last, root, height, nodeSlots, kpl := tr.InnerArrays()
	desc := RegularDesc{Root: root, RootInUpper: height >= 2, Height: height, NodeSlots: nodeSlots, Kpl: kpl}
	d := dev()
	qs := workload.SearchInput(pairs, 6000, 9)
	outLeaf := make([]int32, len(qs))
	outLine := make([]int32, len(qs))
	if _, err := RegularSearchKernel(d, upper, last, desc, qs, outLeaf, outLine, 0, nil); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		wl, wc := tr.SearchToLeaf(q)
		if outLeaf[i] != wl || int(outLine[i]) != wc {
			t.Fatalf("kernel (%d,%d) != host (%d,%d) for key %d", outLeaf[i], outLine[i], wl, wc, q)
		}
	}
}

func TestWarpSearchIsLowerBound(t *testing.T) {
	r := workload.NewRNG(11)
	for iter := 0; iter < 2000; iter++ {
		line := make([]uint64, 8)
		for i := range line {
			line[i] = r.Uint64() % 100
		}
		sort.Slice(line, func(i, j int) bool { return line[i] < line[j] })
		line[7] = keys.Max[uint64]() // HB+ invariant: last slot is MAX
		q := r.Uint64() % 110
		want := sort.Search(8, func(i int) bool { return q <= line[i] })
		if got := warpSearch(line, q); got != want {
			t.Fatalf("warpSearch(%v, %d) = %d, want %d", line, q, got, want)
		}
	}
}

func TestCountersAccumulate(t *testing.T) {
	tr, desc, pairs := buildImplicitHB(t, 10000)
	inner, _, _, _ := tr.InnerArray()
	d := dev()
	qs := workload.SearchInput(pairs, 2000, 1)
	out := make([]int32, len(qs))
	if _, err := ImplicitSearchKernel(d, inner, desc, qs, out, 0, nil); err != nil {
		t.Fatal(err)
	}
	d.KernelDuration(len(qs), float64(desc.Height), 1, 8, 1)
	c := d.Counters()
	if c.Kernels != 1 || c.Transactions != int64(len(qs))*int64(desc.Height) {
		t.Fatalf("counters: %+v", c)
	}
}
