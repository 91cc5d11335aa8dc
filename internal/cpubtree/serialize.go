package cpubtree

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"hbtree/internal/keys"
)

// Serialization of built trees: a versioned little-endian binary image
// so an index bulk-loaded once (the expensive phase of Figure 15) can be
// persisted and re-opened without reconstruction. The format stores the
// exact in-memory node pools; loading re-registers the segments with a
// fresh simulated allocator.
//
// Decode failures are typed: ErrCorruptImage for bytes that violate the
// format (bad magic, impossible geometry, inconsistent pools),
// ErrTruncatedImage for an image that ends mid-field — the distinction
// the durability layer surfaces, since a truncated snapshot points at an
// interrupted write while a corrupt one points at storage damage.

// ErrCorruptImage reports a tree image whose bytes violate the format:
// wrong magic, kind or key width, impossible geometry, or node pools
// inconsistent with their metadata.
var ErrCorruptImage = errors.New("cpubtree: corrupt tree image")

// ErrTruncatedImage reports a tree image that ends before the encoding
// is complete (a short read mid-field or a missing end marker).
var ErrTruncatedImage = errors.New("cpubtree: truncated tree image")

// corruptf wraps ErrCorruptImage with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptImage}, args...)...)
}

// readErr classifies a raw decode I/O error: EOF mid-structure is a
// truncated image; anything else passes through as the I/O failure it
// is.
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncatedImage, err)
	}
	return err
}

// Format identifiers.
const (
	serialMagic    = "HBT1"
	kindImplicit   = byte(1)
	kindRegular    = byte(2)
	serialEndCheck = uint64(0x454E445F48425421) // "END_HBT!"
)

// imageChunk is the staging size of the image codec: values are
// converted to and from little-endian bytes one chunk at a time.
const imageChunk = 64 << 10

// imageWriter encodes an image through one fixed chunk that it writes to
// w whenever it fills, calling binary.LittleEndian directly: a pool costs
// no call through the ByteOrder interface per entry and no pool-sized
// byte slice. The first write error is kept; later output is dropped.
type imageWriter struct {
	w   io.Writer
	n   int64 // bytes written to w
	buf []byte
	err error
}

func newImageWriter(w io.Writer) *imageWriter {
	return &imageWriter{w: w, buf: make([]byte, 0, imageChunk)}
}

// flush writes the staged bytes and returns the first write error.
func (e *imageWriter) flush() error {
	if len(e.buf) > 0 && e.err == nil {
		n, err := e.w.Write(e.buf)
		e.n += int64(n)
		e.err = err
	}
	e.buf = e.buf[:0]
	return e.err
}

// encode stages n entries of size bytes each, handing fn each run of
// entries that fits the chunk: b is the run's bytes, first the index of
// its first entry.
func (e *imageWriter) encode(n, size int, fn func(b []byte, first int)) {
	for first := 0; first < n; {
		if cap(e.buf)-len(e.buf) < size {
			e.flush()
		}
		m := min((cap(e.buf)-len(e.buf))/size, n-first)
		end := len(e.buf) + m*size
		fn(e.buf[len(e.buf):end], first)
		e.buf = e.buf[:end]
		first += m
	}
}

func (e *imageWriter) bytes(p []byte) {
	e.encode(len(p), 1, func(b []byte, first int) { copy(b, p[first:]) })
}

func (e *imageWriter) u64s(vs ...uint64) {
	e.encode(len(vs), 8, func(b []byte, first int) {
		for i := 0; i < len(b)/8; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], vs[first+i])
		}
	})
}

// writeKeys writes s with its length prefix.
func writeKeys[K keys.Key](e *imageWriter, s []K) {
	e.u64s(uint64(len(s)))
	writeKeyData(e, s)
}

// writeKeyData writes s without a length prefix.
func writeKeyData[K keys.Key](e *imageWriter, s []K) {
	if keys.Size[K]() == 8 {
		e.encode(len(s), 8, func(b []byte, first int) {
			for i, v := range s[first : first+len(b)/8] {
				binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
			}
		})
		return
	}
	e.encode(len(s), 4, func(b []byte, first int) {
		for i, v := range s[first : first+len(b)/4] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	})
}

// writePadding writes n empty pair slots: a MAX key and a zero value.
func writePadding[K keys.Key](e *imageWriter, n int) {
	maxK := uint64(keys.Max[K]())
	size := keys.Size[K]()
	e.encode(2*n, size, func(b []byte, first int) {
		for i := 0; i < len(b)/size; i++ {
			v := uint64(0)
			if (first+i)%2 == 0 {
				v = maxK
			}
			if size == 8 {
				binary.LittleEndian.PutUint64(b[8*i:], v)
			} else {
				binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
			}
		}
	})
}

// writeInt32s writes s with its length prefix.
func writeInt32s(e *imageWriter, s []int32) {
	e.u64s(uint64(len(s)))
	e.encode(len(s), 4, func(b []byte, first int) {
		for i, v := range s[first : first+len(b)/4] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	})
}

// imageReader decodes an image through one fixed chunk, the inverse of
// imageWriter.
type imageReader struct {
	r    *bufio.Reader
	buf  []byte
	left int64 // bytes the source still holds, or -1 when it cannot tell
}

func newImageReader(r io.Reader) *imageReader {
	return &imageReader{r: bufio.NewReader(r), buf: make([]byte, imageChunk), left: sizeLeft(r)}
}

// sizeLeft returns how many bytes r still holds when r is an in-memory
// reader or a regular file, and -1 for any other reader.
func sizeLeft(r io.Reader) int64 {
	switch r := r.(type) {
	case *bytes.Reader:
		return int64(r.Len())
	case *bytes.Buffer:
		return int64(r.Len())
	case *strings.Reader:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return max(fi.Size()-off, 0)
	}
	return -1
}

// decode reads n entries of size bytes each, handing fn each chunk's
// run of entries: b is the run's bytes, first the index of its first
// entry.
func (d *imageReader) decode(n, size int, fn func(b []byte, first int)) error {
	per := len(d.buf) / size
	for first := 0; first < n; first += per {
		b := d.buf[:min(per, n-first)*size]
		if _, err := io.ReadFull(d.r, b); err != nil {
			return readErr(err)
		}
		if d.left >= 0 {
			d.left -= int64(len(b))
		}
		fn(b, first)
	}
	return nil
}

func (d *imageReader) u64s(vs ...*uint64) error {
	return d.decode(len(vs), 8, func(b []byte, first int) {
		for i := 0; i < len(b)/8; i++ {
			*vs[first+i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	})
}

// length reads a length prefix, rejecting one above sliceLimit before
// anything is allocated for it.
func (d *imageReader) length(what string) (int, error) {
	var n uint64
	if err := d.u64s(&n); err != nil {
		return 0, err
	}
	if n > sliceLimit {
		return 0, corruptf("%s length %d exceeds limit %d", what, n, uint64(sliceLimit))
	}
	return int(n), nil
}

// upfrontBytes bounds what a decoder allocates for a slice before its
// data has arrived when the source's size is unknown: a corrupt length
// prefix (up to sliceLimit entries) must fail as a truncated image, not
// exhaust memory. Longer slices grow as their chunks are read.
const upfrontBytes = 32 << 20

// readSlice decodes n entries of size bytes each into a slice of
// capacity c >= n, put filling a run of entries from its bytes. When the
// source's size is known, a slice longer than what is left of it is a
// truncated image and any other is allocated once. Otherwise a slice of
// more than upfrontBytes of encoded entries starts at that much and
// doubles as the data arrives, its last step going to c.
func readSlice[T any](d *imageReader, n, c, size int, put func(dst []T, b []byte)) ([]T, error) {
	start := c
	if d.left >= 0 && int64(n)*int64(size) > d.left {
		return nil, fmt.Errorf("%w: %d-byte slice with %d bytes left", ErrTruncatedImage, n*size, d.left)
	}
	if d.left < 0 && n*size > upfrontBytes {
		start = upfrontBytes / size
	}
	s := make([]T, 0, start)
	err := d.decode(n, size, func(b []byte, first int) {
		m := len(b) / size
		if first+m > cap(s) {
			nc := max(2*cap(s), first+m)
			if nc >= n {
				nc = c
			}
			grown := make([]T, first, nc)
			copy(grown, s)
			s = grown
		}
		s = s[:first+m]
		put(s[first:], b)
	})
	return s, err
}

// readKeys reads a length-prefixed key slice. With per > 0 it is a
// regular-tree pool of per-slot nodes and gets the pools' capacity rule
// (a length that is not a whole number of nodes still fits; ReadRegular
// rejects it once the pools are in); with per < 0 it is the paged
// last-level pool of -per-slot nodes and gets whole pages
// (lastPoolCap); with per == 0 its capacity is its length.
func readKeys[K keys.Key](d *imageReader, per int) ([]K, error) {
	n, err := d.length("slice")
	if err != nil {
		return nil, err
	}
	c := n
	switch {
	case per > 0:
		c = reserve(n/per) * per
	case per < 0: // nodes rounded up, so that a corrupt length still fits
		c = lastPoolCap((n-per-1)/-per, -per)
	}
	if keys.Size[K]() == 8 {
		return readSlice(d, n, c, 8, func(dst []K, b []byte) {
			for i := range dst {
				dst[i] = K(binary.LittleEndian.Uint64(b[8*i:]))
			}
		})
	}
	return readSlice(d, n, c, 4, func(dst []K, b []byte) {
		for i := range dst {
			dst[i] = K(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

// readInt32s reads a length-prefixed int32 slice.
func readInt32s(d *imageReader, what string) ([]int32, error) {
	n, err := d.length(what)
	if err != nil {
		return nil, err
	}
	return readSlice(d, n, n, 4, func(dst []int32, b []byte) {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

func writeHeader[K keys.Key](e *imageWriter, kind byte) {
	var hdr [6]byte
	copy(hdr[:], serialMagic)
	hdr[4], hdr[5] = kind, byte(keys.Size[K]()*8)
	e.bytes(hdr[:])
}

func readHeader[K keys.Key](d *imageReader, wantKind byte) error {
	buf := make([]byte, 6)
	if err := d.decode(len(buf), 1, func(b []byte, _ int) { copy(buf, b) }); err != nil {
		return err
	}
	if string(buf[:4]) != serialMagic {
		return corruptf("bad magic %q", buf[:4])
	}
	if buf[4] != wantKind {
		return corruptf("tree kind %d, want %d", buf[4], wantKind)
	}
	if bits := byte(keys.Size[K]() * 8); buf[5] != bits {
		return corruptf("key width %d bits, want %d", buf[5], bits)
	}
	return nil
}

// sliceLimit bounds on-disk slice lengths to catch corrupt images before
// huge allocations.
const sliceLimit = 1 << 34

// WriteTo serialises the implicit tree; it returns the bytes written.
func (t *ImplicitTree[K]) WriteTo(w io.Writer) (int64, error) {
	e := newImageWriter(w)
	writeHeader[K](e, kindImplicit)
	if t.UniformLayout() {
		e.u64s(uint64(t.fanout), uint64(t.numPairs), uint64(t.numLeaves), uint64(t.height))
	} else {
		// Tuned layouts write a fanout=0 sentinel (invalid as a real
		// fanout, so old readers reject rather than misread the image)
		// followed by the base fanout and the per-level geometry table.
		// Uniform trees take the branch above and stay byte-identical to
		// the historical format.
		e.u64s(0, uint64(t.numPairs), uint64(t.numLeaves), uint64(t.height), uint64(t.fanout))
		for d := 0; d < t.height; d++ {
			e.u64s(uint64(t.levelKpn[d]), uint64(t.levelFanout[d]))
		}
	}
	for _, n := range t.levelNodes {
		e.u64s(uint64(n))
	}
	writeKeys(e, t.inner)
	writeKeys(e, t.leaves)
	e.u64s(serialEndCheck)
	return e.n, e.flush()
}

// ReadImplicit deserialises an implicit tree written by WriteTo,
// registering fresh simulated segments per cfg's page configuration.
func ReadImplicit[K keys.Key](r io.Reader, cfg Config) (*ImplicitTree[K], error) {
	cfg.fillDefaults()
	d := newImageReader(r)
	if err := readHeader[K](d, kindImplicit); err != nil {
		return nil, err
	}
	var fanout, numPairs, numLeaves, height uint64
	if err := d.u64s(&fanout, &numPairs, &numLeaves, &height); err != nil {
		return nil, err
	}
	kpn := keys.PerLine[K]()
	tuned := fanout == 0 // sentinel: per-level geometry table follows
	if tuned {
		if err := d.u64s(&fanout); err != nil {
			return nil, err
		}
	}
	if fanout < 2 || fanout > uint64(kpn+1) || height == 0 || height > 64 {
		return nil, corruptf("implicit geometry (fanout %d, height %d)", fanout, height)
	}
	if numPairs > sliceLimit || numLeaves > sliceLimit || numPairs > numLeaves*uint64(kpn) {
		return nil, corruptf("implicit geometry (%d pairs in %d leaf lines)", numPairs, numLeaves)
	}
	t := &ImplicitTree[K]{
		cfg:       cfg,
		kpn:       kpn,
		fanout:    int(fanout),
		pairsLine: kpn / 2,
		numPairs:  int(numPairs),
		numLeaves: int(numLeaves),
		height:    int(height),
	}
	t.levelKpn = make([]int, height)
	t.levelFanout = make([]int, height)
	for i := range t.levelKpn {
		t.levelKpn[i], t.levelFanout[i] = kpn, int(fanout)
	}
	if tuned {
		var widths []int
		for i := 0; i < int(height); i++ {
			var lk, lf uint64
			if err := d.u64s(&lk, &lf); err != nil {
				return nil, err
			}
			if lk < uint64(kpn) || lk%uint64(kpn) != 0 || lk > maxImplicitWidth || lf < 2 || lf > lk+1 {
				return nil, corruptf("implicit level %d geometry (kpn %d, fanout %d)", i, lk, lf)
			}
			t.levelKpn[i], t.levelFanout[i] = int(lk), int(lf)
			if int(lk) != kpn || int(lf) != int(fanout) {
				for len(widths) < i {
					widths = append(widths, 0) // base geometry for this level
				}
				widths = append(widths, int(lk))
			}
		}
		// Preserve the layout policy so a Rebuild of the loaded tree
		// re-derives a tuned layout rather than silently going uniform.
		t.cfg.RootWidths = widths
	}
	lv := make([]uint64, height)
	for i := range lv {
		if err := d.u64s(&lv[i]); err != nil {
			return nil, err
		}
	}
	t.levelNodes = make([]int, height)
	t.levelOff = make([]int, height)
	t.levelSlot = make([]int, height)
	total, slots := uint64(0), uint64(0)
	for i, n := range lv {
		t.levelOff[i] = int(total)
		t.levelSlot[i] = int(slots)
		t.levelNodes[i] = int(n)
		total += n
		slots += n * uint64(t.levelKpn[i])
		if n == 0 || slots > sliceLimit {
			return nil, corruptf("implicit level %d holds %d nodes (total %d)", i, n, total)
		}
	}
	var err error
	if t.inner, err = readKeys[K](d, 0); err != nil {
		return nil, err
	}
	if t.leaves, err = readKeys[K](d, 0); err != nil {
		return nil, err
	}
	if uint64(len(t.inner)) != slots {
		return nil, corruptf("inner array %d keys for %d nodes", len(t.inner), total)
	}
	if len(t.leaves) != t.numLeaves*kpn {
		return nil, corruptf("leaf array %d keys for %d lines", len(t.leaves), t.numLeaves)
	}
	var end uint64
	if err := d.u64s(&end); err != nil {
		return nil, err
	}
	if end != serialEndCheck {
		return nil, corruptf("bad end marker %#x", end)
	}
	sz := int64(keys.Size[K]())
	t.iseg = cfg.Alloc.Alloc(int64(len(t.inner))*sz, cfg.ISegPages)
	t.lseg = cfg.Alloc.Alloc(int64(len(t.leaves))*sz, cfg.LSegPages)
	return t, nil
}

// WriteTo serialises the regular tree (node pools, metadata, free lists
// and the leaf chain); it returns the bytes written. The leaves go out
// in leaf order as one slot pool and one info-line array, the layout the
// format has always had.
func (t *RegularTree[K]) WriteTo(w io.Writer) (int64, error) {
	if t.DeltaLeaves() > 0 {
		// The image format stores packed leaves only: compact the delta
		// regions on a private copy first, which copies the leaves that
		// carry deltas and takes no right on t's. The copy has no
		// deltas, so this recurses at most once.
		return t.compacted().WriteTo(w)
	}
	e := newImageWriter(w)
	writeHeader[K](e, kindRegular)
	e.u64s(uint64(t.numPairs), uint64(t.height), uint64(uint32(t.root)),
		uint64(uint32(t.headLeaf)), uint64(uint32(t.tailLeaf)))
	writeKeys(e, t.upper)
	e.u64s(uint64(len(t.lastMeta) * t.nodeSlots))
	for _, pg := range t.last {
		writeKeyData(e, pg)
	}
	// A leaf is written as its base pairs and MAX-key padding: its gap
	// may hold a successor's appends, written while this runs.
	e.u64s(uint64(t.nleaves * t.leafSlots))
	for _, pg := range t.pages {
		for i := range pg {
			np := int(pg[i].npairs)
			writeKeyData(e, pg[i].data[:2*np])
			writePadding[K](e, t.leafCap-np)
		}
	}
	for _, ms := range [][]nodeMeta{t.upperMeta, t.lastMeta} {
		e.u64s(uint64(len(ms)))
		e.encode(len(ms), 8, func(b []byte, first int) {
			for i, m := range ms[first : first+len(b)/8] {
				binary.LittleEndian.PutUint32(b[8*i:], uint32(m.nchild))
				binary.LittleEndian.PutUint32(b[8*i+4:], uint32(m.parent))
			}
		})
	}
	e.u64s(uint64(t.nleaves))
	e.encode(t.nleaves, 12, func(b []byte, first int) {
		for i := 0; i < len(b)/12; i++ {
			m := t.leaf(int32(first + i))
			binary.LittleEndian.PutUint32(b[12*i:], uint32(m.npairs))
			binary.LittleEndian.PutUint32(b[12*i+4:], uint32(m.next))
			binary.LittleEndian.PutUint32(b[12*i+8:], uint32(m.prev))
		}
	})
	writeInt32s(e, t.freeUpper)
	writeInt32s(e, t.freeLast)
	e.u64s(serialEndCheck)
	return e.n, e.flush()
}

// ReadRegular deserialises a regular tree written by WriteTo. Its pools
// are sized by the same capacity rule as a bulk load's, and its leaves
// are cut from one leaf pool and one record pool, as a bulk load's are.
func ReadRegular[K keys.Key](r io.Reader, cfg Config) (*RegularTree[K], error) {
	cfg.fillDefaults()
	d := newImageReader(r)
	if err := readHeader[K](d, kindRegular); err != nil {
		return nil, err
	}
	var numPairs, height, root, head, tail uint64
	if err := d.u64s(&numPairs, &height, &root, &head, &tail); err != nil {
		return nil, err
	}
	if height == 0 || height > 16 {
		return nil, corruptf("regular geometry (height %d)", height)
	}
	if numPairs > sliceLimit {
		return nil, corruptf("regular geometry (%d pairs)", numPairs)
	}
	t := newRegular[K](cfg)
	t.numPairs = int(numPairs)
	t.height = int(height)
	t.root = int32(uint32(root))
	t.headLeaf = int32(uint32(head))
	t.tailLeaf = int32(uint32(tail))
	var err error
	if t.upper, err = readKeys[K](d, t.nodeSlots); err != nil {
		return nil, err
	}
	last, err := readKeys[K](d, -t.nodeSlots)
	if err != nil {
		return nil, err
	}
	if t.leafPool, err = readKeys[K](d, t.leafSlots); err != nil {
		return nil, err
	}
	readMeta := func() ([]nodeMeta, error) {
		n, err := d.length("meta")
		if err != nil {
			return nil, err
		}
		return readSlice(d, n, reserve(n), 8, func(dst []nodeMeta, b []byte) {
			for i := range dst {
				dst[i] = nodeMeta{
					nchild: int32(binary.LittleEndian.Uint32(b[8*i:])),
					parent: int32(binary.LittleEndian.Uint32(b[8*i+4:])),
				}
			}
		})
	}
	if t.upperMeta, err = readMeta(); err != nil {
		return nil, err
	}
	if t.lastMeta, err = readMeta(); err != nil {
		return nil, err
	}
	nLeafMeta, err := d.length("leaf meta")
	if err != nil {
		return nil, err
	}
	t.recPool, err = readSlice(d, nLeafMeta, reserve(nLeafMeta), 12, func(dst []leafRec[K], b []byte) {
		for i := range dst {
			dst[i] = leafRec[K]{
				npairs: int32(binary.LittleEndian.Uint32(b[12*i:])),
				next:   int32(binary.LittleEndian.Uint32(b[12*i+4:])),
				prev:   int32(binary.LittleEndian.Uint32(b[12*i+8:])),
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if t.freeUpper, err = readInt32s(d, "free list"); err != nil {
		return nil, err
	}
	if t.freeLast, err = readInt32s(d, "free list"); err != nil {
		return nil, err
	}
	var end uint64
	if err := d.u64s(&end); err != nil {
		return nil, err
	}
	if end != serialEndCheck {
		return nil, corruptf("bad end marker %#x", end)
	}
	if len(t.leafPool) != len(t.recPool)*t.leafSlots {
		return nil, corruptf("leaf data %d keys for %d leaf groups", len(t.leafPool), len(t.recPool))
	}
	t.nleaves = len(t.recPool)
	t.initRights()
	t.last, t.lastStamp = t.pageLast(last)
	for l := range t.recPool {
		r := &t.recPool[l]
		r.data = t.leafPool[l*t.leafSlots : (l+1)*t.leafSlots : (l+1)*t.leafSlots]
		r.stamp = t.owned
	}
	t.pages = pageLeaves(t.recPool)
	if err := t.validate(); err != nil {
		return nil, err
	}
	t.allocSegments()
	return t, nil
}

// validate checks a decoded tree's structure before first use, its
// leaves all in the record pool as ReadRegular cut them: pool
// sizes agree with their metadata, every metadata link stays inside its
// pool, and every reference slot of a live inner node indexes the pool
// its height implies. A corrupt image must fail here, not as an index
// panic on first use.
func (t *RegularTree[K]) validate() error {
	nLastKeys := 0
	for _, pg := range t.last {
		nLastKeys += len(pg)
	}
	if len(t.upper)%t.nodeSlots != 0 || nLastKeys%t.nodeSlots != 0 {
		return corruptf("pool sizes not node-aligned (%d/%d keys, %d slots per node)",
			len(t.upper), nLastKeys, t.nodeSlots)
	}
	if len(t.upperMeta) != len(t.upper)/t.nodeSlots {
		return corruptf("upper metadata %d entries for %d nodes", len(t.upperMeta), len(t.upper)/t.nodeSlots)
	}
	if len(t.lastMeta) != nLastKeys/t.nodeSlots || t.nleaves != len(t.lastMeta) {
		return corruptf("last metadata %d / leaf metadata %d for %d nodes",
			len(t.lastMeta), t.nleaves, nLastKeys/t.nodeSlots)
	}
	// Link sanity: the root must index the pool its height implies, the
	// leaf chain endpoints must be real leaf groups, and every meta link
	// must stay inside its pool.
	nUpper, nLast := int32(len(t.upperMeta)), int32(len(t.lastMeta))
	rootPool := nUpper
	if t.height < 2 {
		rootPool = nLast
	}
	if t.root < 0 || t.root >= rootPool {
		return corruptf("root %d outside its pool of %d nodes", t.root, rootPool)
	}
	if t.headLeaf < 0 || t.headLeaf >= nLast || t.tailLeaf < 0 || t.tailLeaf >= nLast {
		return corruptf("leaf chain endpoints %d..%d outside %d leaf groups", t.headLeaf, t.tailLeaf, nLast)
	}
	for i, m := range t.upperMeta {
		if m.nchild < 0 || int(m.nchild) > t.fanout || m.parent < -1 || m.parent >= nUpper {
			return corruptf("upper node %d meta (nchild %d, parent %d)", i, m.nchild, m.parent)
		}
	}
	for i, m := range t.lastMeta {
		if m.nchild < 0 || int(m.nchild) > t.fanout || m.parent < -1 || m.parent >= nUpper {
			return corruptf("last node %d meta (nchild %d, parent %d)", i, m.nchild, m.parent)
		}
	}
	for i, m := range t.recPool {
		if m.npairs < 0 || int(m.npairs) > t.leafCap || m.next < -1 || m.next >= nLast || m.prev < -1 || m.prev >= nLast {
			return corruptf("leaf group %d meta (npairs %d, next %d, prev %d)", i, m.npairs, m.next, m.prev)
		}
	}
	// A leaf-chain walk (range scans, cursors) must end: the chain from
	// headLeaf may visit each leaf group at most once.
	steps := int32(0)
	for b := t.headLeaf; b != nilRef; b = t.recPool[b].next {
		if steps++; steps > nLast {
			return corruptf("leaf chain from %d has a cycle", t.headLeaf)
		}
	}
	for i, fi := range t.freeUpper {
		if fi < 0 || fi >= nUpper {
			return corruptf("free upper entry %d = %d outside %d nodes", i, fi, nUpper)
		}
	}
	for i, fi := range t.freeLast {
		if fi < 0 || fi >= nLast {
			return corruptf("free last entry %d = %d outside %d nodes", i, fi, nLast)
		}
	}
	return t.validateRefs()
}

// validateRefs walks the live inner nodes from the root, one height at a
// time. Every reference slot of a node at height h must index the upper
// pool when h > 2 and the last-level pool when h == 2 — a search may
// land on any slot once keys are damaged, so unused slots (zero in every
// image WriteTo makes) are checked too. A node's first nchild references
// are its children and are walked next; an upper node reached twice is
// corrupt, which also bounds the walk by the pool size.
func (t *RegularTree[K]) validateRefs() error {
	if t.height < 2 {
		return nil
	}
	nUpper := len(t.upperMeta)
	seen := make([]bool, nUpper)
	level := make([]int32, 1, nUpper)
	level[0] = t.root
	seen[t.root] = true
	for lo, h := 0, t.height; h >= 2; h-- {
		pool := nUpper
		if h == 2 {
			pool = len(t.lastMeta)
		}
		hi := len(level)
		for _, u := range level[lo:hi] {
			rs := t.nodeRefs(t.upper, u)
			for j, r := range rs {
				if uint64(r) >= uint64(pool) {
					return corruptf("upper node %d at height %d: reference %d = %d outside its pool of %d nodes", u, h, j, uint64(r), pool)
				}
				if h == 2 || j >= int(t.upperMeta[u].nchild) {
					continue
				}
				if seen[r] {
					return corruptf("upper node %d reached twice", r)
				}
				seen[r] = true
				level = append(level, int32(r))
			}
		}
		lo = hi
	}
	return nil
}
