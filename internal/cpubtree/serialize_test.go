package cpubtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hbtree/internal/mem"
	"hbtree/internal/workload"
)

func TestImplicitRoundTrip(t *testing.T) {
	for _, n := range []int{1, 37, 5000, 100000} {
		pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
		tr, err := BuildImplicit(pairs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		written, err := tr.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if written != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", written, buf.Len())
		}
		rt, err := ReadImplicit[uint64](&buf, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rt.Height() != tr.Height() || rt.Stats() != tr.Stats() {
			t.Fatalf("geometry diverges: %+v vs %+v", rt.Stats(), tr.Stats())
		}
		for i := 0; i < len(pairs); i += 1 + len(pairs)/500 {
			p := pairs[i]
			if v, ok := rt.Lookup(p.Key); !ok || v != p.Value {
				t.Fatalf("n=%d: loaded tree Lookup(%d) failed", n, p.Key)
			}
		}
	}
}

func TestImplicitRoundTrip32(t *testing.T) {
	pairs := workload.Dataset[uint32](workload.Uniform, 20000, 7)
	tr, err := BuildImplicit(pairs, Config{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadImplicit[uint32](&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Fanout() != 16 {
		t.Fatalf("fanout %d", rt.Fanout())
	}
	for _, p := range pairs[:500] {
		if v, ok := rt.Lookup(p.Key); !ok || v != p.Value {
			t.Fatalf("Lookup(%d) failed", p.Key)
		}
	}
}

func TestRegularRoundTripAfterUpdates(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 30000, 3)
	tr, err := BuildRegular(pairs, Config{LeafFill: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate so free lists, splits and unlinks are all exercised.
	r := workload.NewRNG(9)
	oracle := make(map[uint64]uint64)
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	for i := 0; i < 20000; i++ {
		if r.Intn(3) == 0 {
			k := pairs[r.Intn(len(pairs))].Key
			tr.Delete(k)
			delete(oracle, k)
		} else {
			k := r.Uint64()
			if k == ^uint64(0) {
				continue
			}
			tr.Insert(k, k^7)
			oracle[k] = k ^ 7
		}
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadRegular[uint64](&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumPairs() != len(oracle) {
		t.Fatalf("NumPairs %d != %d", rt.NumPairs(), len(oracle))
	}
	for k, v := range oracle {
		if got, ok := rt.Lookup(k); !ok || got != v {
			t.Fatalf("loaded Lookup(%d) = (%d,%v), want %d", k, got, ok, v)
		}
	}
	// The loaded tree must remain updatable (free lists intact).
	if _, err := rt.Insert(12345, 1); err != nil {
		t.Fatal(err)
	}
	if found, _ := rt.Delete(12345); !found {
		t.Fatal("post-load delete failed")
	}
	// Range scans use the restored leaf chain.
	out := rt.RangeQuery(0, 100, nil)
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			t.Fatal("restored leaf chain out of order")
		}
	}
}

func TestSerializeErrors(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1000, 1)
	impl, _ := BuildImplicit(pairs, Config{})
	reg, _ := BuildRegular(pairs, Config{})
	var ibuf, rbuf bytes.Buffer
	if _, err := impl.WriteTo(&ibuf); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.WriteTo(&rbuf); err != nil {
		t.Fatal(err)
	}

	// Wrong kind.
	if _, err := ReadRegular[uint64](bytes.NewReader(ibuf.Bytes()), Config{}); err == nil {
		t.Fatal("implicit image accepted as regular")
	}
	if _, err := ReadImplicit[uint64](bytes.NewReader(rbuf.Bytes()), Config{}); err == nil {
		t.Fatal("regular image accepted as implicit")
	}
	// Wrong width.
	if _, err := ReadImplicit[uint32](bytes.NewReader(ibuf.Bytes()), Config{}); err == nil {
		t.Fatal("64-bit image accepted as 32-bit")
	}
	// Bad magic.
	bad := append([]byte("NOPE"), ibuf.Bytes()[4:]...)
	if _, err := ReadImplicit[uint64](bytes.NewReader(bad), Config{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
	// Truncations at every strategic boundary.
	for _, cut := range []int{0, 3, 6, 20, ibuf.Len() / 2, ibuf.Len() - 4} {
		if _, err := ReadImplicit[uint64](bytes.NewReader(ibuf.Bytes()[:cut]), Config{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, cut := range []int{6, 40, rbuf.Len() / 2, rbuf.Len() - 4} {
		if _, err := ReadRegular[uint64](bytes.NewReader(rbuf.Bytes()[:cut]), Config{}); err == nil {
			t.Fatalf("regular truncation at %d accepted", cut)
		}
	}
	// Corrupt geometry: absurd fanout.
	img := append([]byte(nil), ibuf.Bytes()...)
	img[6] = 0xFF // low byte of fanout
	if _, err := ReadImplicit[uint64](bytes.NewReader(img), Config{}); err == nil {
		t.Fatal("corrupt fanout accepted")
	}
}

// TestSerializeTypedErrors pins the decode error taxonomy: format
// violations surface ErrCorruptImage, short reads ErrTruncatedImage,
// and the two never blur — the distinction the durability layer's
// recovery reporting relies on.
func TestSerializeTypedErrors(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 2000, 11)
	impl, _ := BuildImplicit(pairs, Config{})
	reg, _ := BuildRegular(pairs, Config{})
	var ibuf, rbuf bytes.Buffer
	impl.WriteTo(&ibuf)
	reg.WriteTo(&rbuf)

	wantCorrupt := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorruptImage) {
			t.Fatalf("%s: err %v, want ErrCorruptImage", what, err)
		}
		if errors.Is(err, ErrTruncatedImage) {
			t.Fatalf("%s: corrupt error also matches truncated: %v", what, err)
		}
	}
	wantTruncated := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrTruncatedImage) {
			t.Fatalf("%s: err %v, want ErrTruncatedImage", what, err)
		}
		if errors.Is(err, ErrCorruptImage) {
			t.Fatalf("%s: truncated error also matches corrupt: %v", what, err)
		}
	}

	// Corruptions.
	bad := append([]byte("NOPE"), ibuf.Bytes()[4:]...)
	_, err := ReadImplicit[uint64](bytes.NewReader(bad), Config{})
	wantCorrupt("bad magic", err)
	_, err = ReadRegular[uint64](bytes.NewReader(ibuf.Bytes()), Config{})
	wantCorrupt("wrong kind", err)
	_, err = ReadImplicit[uint32](bytes.NewReader(ibuf.Bytes()), Config{})
	wantCorrupt("wrong width", err)

	img := append([]byte(nil), ibuf.Bytes()...)
	img[6] = 0xFF
	_, err = ReadImplicit[uint64](bytes.NewReader(img), Config{})
	wantCorrupt("absurd fanout", err)

	img = append([]byte(nil), ibuf.Bytes()...)
	binary.LittleEndian.PutUint64(img[len(img)-8:], 0xdeadbeef) // end marker
	_, err = ReadImplicit[uint64](bytes.NewReader(img), Config{})
	wantCorrupt("bad end marker", err)

	// Regular-tree link corruption: point the root far outside its pool.
	img = append([]byte(nil), rbuf.Bytes()...)
	binary.LittleEndian.PutUint64(img[6+16:6+24], 1<<30) // root field
	_, err = ReadRegular[uint64](bytes.NewReader(img), Config{})
	wantCorrupt("root outside pool", err)

	// Regular-tree link corruption: break the leaf chain head.
	img = append([]byte(nil), rbuf.Bytes()...)
	binary.LittleEndian.PutUint64(img[6+24:6+32], 1<<30) // headLeaf field
	_, err = ReadRegular[uint64](bytes.NewReader(img), Config{})
	wantCorrupt("leaf chain endpoint outside pool", err)

	// Regular-tree link corruption: leaf 1 links back to leaf 0, so a
	// chain walk would never end. Leaf metadata follows the three key
	// pools and the two node-metadata arrays, each with its length.
	img = append([]byte(nil), rbuf.Bytes()...)
	leafMetaAt := 6 + 5*8 + 8*(5+len(reg.upper)+len(reg.lastMeta)*reg.nodeSlots+reg.nleaves*reg.leafSlots+len(reg.upperMeta)+len(reg.lastMeta)) + 8
	if next := binary.LittleEndian.Uint32(img[leafMetaAt+12+4:]); next != 2 {
		t.Fatalf("leaf 1's next link reads %d, want 2", next)
	}
	binary.LittleEndian.PutUint32(img[leafMetaAt+12+4:], 0)
	_, err = ReadRegular[uint64](bytes.NewReader(img), Config{})
	wantCorrupt("leaf chain cycle", err)

	// Short reads: every strategic truncation is typed as truncated, not
	// corrupt (the header itself excepted — 0 bytes has no format to
	// violate, it is just short).
	for _, cut := range []int{0, 3, 6, 20, ibuf.Len() / 2, ibuf.Len() - 4} {
		_, err := ReadImplicit[uint64](bytes.NewReader(ibuf.Bytes()[:cut]), Config{})
		wantTruncated("implicit truncation", err)
	}
	for _, cut := range []int{6, 40, rbuf.Len() / 2, rbuf.Len() - 4} {
		_, err := ReadRegular[uint64](bytes.NewReader(rbuf.Bytes()[:cut]), Config{})
		wantTruncated("regular truncation", err)
	}
}

// regularRefOffset returns the byte offset, in a uint64 regular image,
// of reference slot j of upper node u: the header, five geometry words
// and the upper pool's length prefix precede the pool.
func regularRefOffset(tr *RegularTree[uint64], u, j int) int {
	return 6 + 5*8 + 8 + 8*(u*tr.nodeSlots+tr.kpl+tr.fanout+j)
}

// TestReadRegularRejectsOutOfPoolRefs pins the inner-reference check of
// ReadRegular: an image whose live inner node references a node outside
// the pool its height implies is corrupt, and fails the load instead of
// the first lookup.
func TestReadRegularRejectsOutOfPoolRefs(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 20000, 11)
	type tc struct {
		name string
		n    int // pairs in the tree: 2000 build height 2, 20000 height 3
		u, j int // reference slot to overwrite
		ref  func(tr *RegularTree[uint64]) uint64
	}
	cases := []tc{
		{"height 2, first child far outside the last pool", 2000, 0, 0,
			func(*RegularTree[uint64]) uint64 { return 1_000_000 }},
		{"height 2, child one past the last pool", 2000, 0, 3,
			func(tr *RegularTree[uint64]) uint64 { return uint64(len(tr.lastMeta)) }},
		{"height 2, unused slot outside the last pool", 2000, 0, 60,
			func(*RegularTree[uint64]) uint64 { return 1 << 40 }},
		{"height 2, negative as int32", 2000, 0, 1,
			func(*RegularTree[uint64]) uint64 { return 1<<32 - 1 }},
		// 79 leaves: two height-2 nodes (0, 1) under root 2. A root child
		// of 3 is a valid last-level index but outside the upper pool.
		{"height 3, child inside the last pool but outside the upper pool", 20000, 2, 0,
			func(tr *RegularTree[uint64]) uint64 { return uint64(len(tr.upperMeta)) }},
		{"height 3, child reached twice", 20000, 2, 1,
			func(*RegularTree[uint64]) uint64 { return 0 }},
		{"height 3, child is the root", 20000, 2, 0,
			func(*RegularTree[uint64]) uint64 { return 2 }},
	}
	for _, c := range cases {
		tr, err := BuildRegular(pairs[:c.n], Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[int]int{2000: 2, 20000: 3}[c.n]; tr.height != want || want == 3 && tr.root != 2 {
			t.Fatalf("%s: tree of height %d, root %d; the case expects height %d", c.name, tr.height, tr.root, want)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		if _, err := ReadRegular[uint64](bytes.NewReader(img), Config{}); err != nil {
			t.Fatalf("%s: unmodified image: %v", c.name, err)
		}
		off := regularRefOffset(tr, c.u, c.j)
		if got := binary.LittleEndian.Uint64(img[off:]); got != tr.nodeRefs(tr.upper, int32(c.u))[c.j] {
			t.Fatalf("%s: offset %d holds %d, not reference %d of node %d", c.name, off, got, c.j, c.u)
		}
		binary.LittleEndian.PutUint64(img[off:], c.ref(tr))
		if _, err := ReadRegular[uint64](bytes.NewReader(img), Config{}); !errors.Is(err, ErrCorruptImage) {
			t.Errorf("%s: err %v, want ErrCorruptImage", c.name, err)
		}
	}
}

// TestRegularImageCodecAllocs pins the image codec's allocations to a
// constant per image: WriteTo makes the same few at 2^12 and 2^16
// pairs, and ReadRegular allocates its pools plus a constant.
func TestRegularImageCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const maxWrite, maxReadOverhead = 2, 8
	var writes, reads []float64
	for _, n := range []int{1 << 12, 1 << 16} {
		tr, _ := buildRegular64(t, n, Config{LeafFill: 0.875})
		writes = append(writes, testing.AllocsPerRun(5, func() {
			if _, err := tr.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}))
		var buf bytes.Buffer
		tr.WriteTo(&buf)
		cfg := Config{Alloc: mem.NewAllocator()}
		reads = append(reads, testing.AllocsPerRun(5, func() {
			if _, err := ReadRegular[uint64](bytes.NewReader(buf.Bytes()), cfg); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if writes[0] != writes[1] || writes[1] > maxWrite {
		t.Errorf("WriteTo allocations at 2^12 and 2^16 pairs = %v, want the same, at most %d", writes, maxWrite)
	}
	// Three key pools, three metadata pools, two free lists, and the
	// last-level pool's page table and page states.
	const pools = 10
	if reads[0] != reads[1] || reads[1] > pools+maxReadOverhead {
		t.Errorf("ReadRegular allocations at 2^12 and 2^16 pairs = %v, want the same, at most %d", reads, pools+maxReadOverhead)
	}
	t.Logf("allocations per image: WriteTo %v, ReadRegular %v", writes, reads)
}

// TestImageDecoderAllocation pins what the decoder allocates for a
// slice. From a source of known size (an in-memory reader or a regular
// file) a length prefix longer than the rest of the source fails as
// truncated before anything is allocated for it, and a valid slice is
// allocated once, at the capacity its caller asked for. From any other
// reader a corrupt prefix fails after allocating at most upfrontBytes,
// and a slice longer than that grows as its data arrives.
func TestImageDecoderAllocation(t *testing.T) {
	var corrupt bytes.Buffer
	binary.Write(&corrupt, binary.LittleEndian, uint64(sliceLimit))
	corrupt.Write(make([]byte, 100))

	const per = 136
	nodes := upfrontBytes/8/per + 100 // just past the up-front allocation
	want := make([]uint64, nodes*per)
	for i := range want {
		want[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	var img bytes.Buffer
	e := newImageWriter(&img)
	writeKeys(e, want)
	if err := e.flush(); err != nil {
		t.Fatal(err)
	}
	wantCap := reserve(nodes) * per

	dir := t.TempDir()
	open := map[string]func(t *testing.T, b []byte) io.Reader{
		"bytes": func(t *testing.T, b []byte) io.Reader { return bytes.NewReader(b) },
		"file": func(t *testing.T, b []byte) io.Reader {
			path := filepath.Join(dir, fmt.Sprint(len(b)))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
		"stream": func(t *testing.T, b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} },
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const codec = 1 << 20 // the reader's chunk and buffer, with room to spare
	for name, open := range open {
		t.Run(name, func(t *testing.T) {
			known := name != "stream"
			var err error
			r := open(t, corrupt.Bytes())
			got := allocated(func() { _, err = readKeys[uint64](newImageReader(r), 0) })
			if !errors.Is(err, ErrTruncatedImage) {
				t.Fatalf("corrupt length: err %v, want ErrTruncatedImage", err)
			}
			if bound := uint64(2 * upfrontBytes); known && got > codec || got > bound {
				t.Fatalf("corrupt length allocated %d bytes (known size %v)", got, known)
			}

			r = open(t, img.Bytes())
			var dec []uint64
			got = allocated(func() { dec, err = readKeys[uint64](newImageReader(r), per) })
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != len(want) || cap(dec) != wantCap {
				t.Fatalf("len %d cap %d, want len %d cap %d", len(dec), cap(dec), len(want), wantCap)
			}
			if once := uint64(8*wantCap + codec); known && got > once {
				t.Fatalf("allocated %d bytes for a %d-byte slice of known size, want at most %d", got, 8*wantCap, once)
			}
			if !slices.Equal(dec, want) {
				t.Fatal("decoded keys differ from the encoded ones")
			}
		})
	}
}
