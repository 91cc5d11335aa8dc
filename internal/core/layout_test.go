package core

import (
	"bytes"
	"slices"
	"testing"

	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// layoutPropQueries mixes present keys, misses and duplicates in random
// order — the input space every lookup path must resolve identically on
// a tuned tree and a uniform one.
func layoutPropQueries[K keys.Key](pairs []keys.Pair[K], n int, seed uint64) []K {
	r := workload.NewRNG(seed)
	qs := make([]K, n)
	for i := range qs {
		switch r.Intn(4) {
		case 0: // absent (with overwhelming probability)
			k := K(r.Uint64())
			if k == keys.Max[K]() {
				k--
			}
			qs[i] = k
		case 1: // duplicate an earlier query
			if i > 0 {
				qs[i] = qs[r.Intn(i)]
			} else {
				qs[i] = pairs[r.Intn(len(pairs))].Key
			}
		default: // present
			qs[i] = pairs[r.Intn(len(pairs))].Key
		}
	}
	return qs
}

// layoutPropRun compares every lookup path of a tuned-layout tree
// against its uniform twin over one dataset size and key width. The
// tuned tree may or may not actually widen (the tuner declines when
// uniform is optimal); the caller tallies how often it did so the sweep
// can assert the property was exercised on genuinely non-uniform trees.
func layoutPropRun[K keys.Key](t *testing.T, n int, seed uint64) (widened bool) {
	t.Helper()
	pairs := workload.Dataset[K](workload.Uniform, n, seed)
	uni, err := Build(pairs, Options{Variant: Implicit})
	if err != nil {
		t.Fatal(err)
	}
	defer uni.Close()
	tun, err := Build(pairs, Options{Variant: Implicit, Layout: LayoutTuned, LayoutBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer tun.Close()
	for _, w := range tun.LevelWidths() {
		if w > keys.PerLine[K]() {
			widened = true
		}
	}

	// Point lookups.
	for i := 0; i < 500; i++ {
		q := pairs[(i*131)%len(pairs)].Key
		uv, uf := uni.Lookup(q)
		tv, tf := tun.Lookup(q)
		if uv != tv || uf != tf {
			t.Fatalf("n=%d: point lookup diverges for key %v: uniform (%v,%v), tuned (%v,%v)", n, q, uv, uf, tv, tf)
		}
		uv, uf = uni.Lookup(q + 1) // overwhelmingly a miss
		tv, tf = tun.Lookup(q + 1)
		if uv != tv || uf != tf {
			t.Fatalf("n=%d: point miss diverges for key %v", n, q+1)
		}
	}

	// Batch shapes spanning partial, exact and multi-bucket sizes, each
	// through the plain pipeline, the sorted shared descent, and the
	// host-only CPU fallback.
	for bi, bn := range []int{1, 7, DefaultBucketSize, 3*DefaultBucketSize + 13} {
		qs := layoutPropQueries(pairs, bn, seed+uint64(bi)+100)
		uv, uf, _, err := uni.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		tv, tf, _, err := tun.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if uv[i] != tv[i] || uf[i] != tf[i] {
				t.Fatalf("n=%d bn=%d: batch diverges at %d (key %v): uniform (%v,%v), tuned (%v,%v)",
					n, bn, i, qs[i], uv[i], uf[i], tv[i], tf[i])
			}
		}
		sv, sf, _ := lookupSorted(t, tun, qs)
		for i := range qs {
			if uv[i] != sv[i] || uf[i] != sf[i] {
				t.Fatalf("n=%d bn=%d: sorted descent diverges at %d (key %v): uniform (%v,%v), tuned sorted (%v,%v)",
					n, bn, i, qs[i], uv[i], uf[i], sv[i], sf[i])
			}
		}
		pv, pf := make([]K, bn), make([]bool, bn)
		tun.LookupBatchCPUInto(qs, pv, pf)
		for i := range qs {
			if uv[i] != pv[i] || uf[i] != pf[i] {
				t.Fatalf("n=%d bn=%d: CPU fallback diverges at %d (key %v): uniform (%v,%v), tuned CPU (%v,%v)",
					n, bn, i, qs[i], uv[i], uf[i], pv[i], pf[i])
			}
		}
	}
	return widened
}

// TestTunedLayoutMatchesUniformProperty is the layout engine's
// correctness contract: for random trees across both key widths and
// batch shapes, a tuned-layout tree returns byte-identical results to
// the uniform tree on every lookup path — point, plain batch, sorted
// shared descent, and the host-only CPU fallback. The sweep
// also requires that at least one tree per key width genuinely widened,
// so the property is never vacuously green.
func TestTunedLayoutMatchesUniformProperty(t *testing.T) {
	sizes := []int{3000, 30000, 1 << 16}
	widened64 := false
	for i, n := range sizes {
		if layoutPropRun[uint64](t, n, uint64(i+1)) {
			widened64 = true
		}
	}
	if !widened64 {
		t.Error("no uint64 sweep size produced a widened tree; the property ran only on uniform layouts")
	}
	widened32 := false
	for i, n := range sizes {
		if layoutPropRun[uint32](t, n, uint64(i+7)) {
			widened32 = true
		}
	}
	if !widened32 {
		t.Error("no uint32 sweep size produced a widened tree; the property ran only on uniform layouts")
	}
}

// TestTunedLayoutShortensAndSavesProbeLines is the layout engine's
// deterministic acceptance criterion: at 2^16 pairs and a 256-query
// flush quantum the tuner widens a root-side level, which makes the
// tree one level shorter, and seeded sorted duplicate-free batches of
// 256 — what the coalescer presents — then cost strictly fewer device
// lines than on the uniform tree. LevelProbes counts transactions (a
// fresh probe of a wide node costs its line count), so its sum is the
// probe-weighted line traffic. Nothing here depends on time or
// GOMAXPROCS.
func TestTunedLayoutShortensAndSavesProbeLines(t *testing.T) {
	const batch = 256
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 42)
	measure := func(opt Options) (height int, lines int64) {
		tr, err := Build(pairs, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		r := workload.NewRNG(7)
		idx := make([]int, batch)
		qs, vs, fs := make([]uint64, 0, batch), make([]uint64, batch), make([]bool, batch)
		for b := 0; b < 64; b++ {
			for i := range idx {
				idx[i] = r.Intn(len(pairs))
			}
			slices.Sort(idx)
			qs = qs[:0]
			for _, i := range slices.Compact(idx) {
				qs = append(qs, pairs[i].Key)
			}
			st, err := tr.LookupBatchSortedInto(qs, vs, fs)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range st.LevelProbes {
				lines += p
			}
		}
		return len(tr.LevelWidths()), lines
	}
	uh, ul := measure(Options{Variant: Implicit})
	th, tl := measure(Options{Variant: Implicit, Layout: LayoutTuned, LayoutBatch: batch})
	t.Logf("uniform: height %d, %d probe lines; tuned: height %d, %d probe lines", uh, ul, th, tl)
	if th >= uh {
		t.Errorf("tuned height %d not below uniform %d", th, uh)
	}
	if ul <= 0 || tl >= ul {
		t.Errorf("tuned layout did not reduce probe lines: %d vs uniform %d", tl, ul)
	}
}

// TestTunedLayoutSurvivesSerialization: the core-level WriteTo/Load
// round trip preserves the tuned geometry (the image carries the
// per-level table; Load rebuilds the device replica against it) and
// serves identical results afterwards.
func TestTunedLayoutSurvivesSerialization(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, 5)
	tr, err := Build(pairs, Options{Variant: Implicit, Layout: LayoutTuned, LayoutBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	wide := false
	for _, w := range tr.LevelWidths() {
		if w > keys.PerLine[uint64]() {
			wide = true
		}
	}
	if !wide {
		t.Skip("tuner stayed uniform at this size; nothing to round-trip")
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := Load[uint64](&buf, Options{Variant: Implicit, Layout: LayoutTuned, LayoutBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, want := rt.LevelWidths(), tr.LevelWidths()
	if len(got) != len(want) {
		t.Fatalf("loaded widths %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("loaded widths %v, want %v", got, want)
		}
	}
	qs := layoutPropQueries(pairs, 3*DefaultBucketSize, 99)
	ov, of, _ := lookupSorted(t, tr, qs)
	lv, lf, _ := lookupSorted(t, rt, qs)
	for i := range qs {
		if ov[i] != lv[i] || of[i] != lf[i] {
			t.Fatalf("loaded tuned tree diverges at %d (key %d)", i, qs[i])
		}
	}
}
