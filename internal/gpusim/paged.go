package gpusim

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"unsafe"

	"hbtree/internal/fault"
	"hbtree/internal/keys"
	"hbtree/internal/vclock"
)

// PagedBuffer is a device allocation held in fixed pages behind a page
// table: the regular HB+-tree's last-level I-segment replica. Every
// replica is charged as a buffer of its own — device memory, fault
// checks, H2D bytes and transfer time are those of a flat Buffer — but
// the replicas of one tree lineage share every page neither has written
// since they parted, as the host pools do. Only the pages a copy
// actually changes are copied: the paper's §5.6 ships just the inner
// nodes an update modified, and the simulator's host memory does the
// same.
//
// Pages follow one stamp rule. Each page carries the clock time it was
// made or copied, and each buffer a floor: a buffer writes a page in
// place only if the page's stamp is at or past its floor. Sharing a
// buffer's pages raises its floor past every stamp, so neither sharer
// writes a page the other reads.
type PagedBuffer[K keys.Key] struct {
	dev     *Device
	pages   [][]K
	stamps  []uint64
	floor   atomic.Uint64
	pageLen int
	n       int
	size    int64
	freed   bool
}

// pageClock is the page-ownership clock: only the order of its ticks
// matters, so one process-wide counter serves every device.
var pageClock atomic.Uint64

// MallocPaged allocates a paged buffer of n elements in pages of pageLen
// elements, failing as Malloc does. It holds no pages until
// CopyPagesFromHost fills it.
func MallocPaged[K keys.Key](d *Device, n, pageLen int) (*PagedBuffer[K], error) {
	var z K
	size := int64(n) * int64(sizeofAny(z))
	if err := d.alloc(size); err != nil {
		return nil, err
	}
	b := &PagedBuffer[K]{dev: d, pageLen: pageLen, n: n, size: size}
	b.floor.Store(pageClock.Add(1))
	return b, nil
}

// Free releases the buffer's device memory. Its pages stay readable by
// the buffers that share them. Double frees are no-ops.
func (b *PagedBuffer[K]) Free() {
	if b.freed {
		return
	}
	b.dev.release(b.size)
	b.freed = true
}

// Pages exposes the device-resident page table; kernels read it. Every
// page but the last holds pageLen elements.
func (b *PagedBuffer[K]) Pages() [][]K { return b.pages }

// Len returns the element count.
func (b *PagedBuffer[K]) Len() int { return b.n }

// CopyPagesFromHost copies the host pages src, every one but the last of
// pageLen elements, into the buffer: a cudaMemcpy of the whole image,
// charged and fault-checked as CopyFromHost would charge it. Physically,
// page p is taken from prev, a buffer that held an earlier image of src,
// when it holds what src[p] holds; the two buffers then share the page.
// Comparing every page costs a read of the image, far less than a copy
// of it, and needs nothing from the host tree about what it wrote. prev
// may be nil, or freed.
func (b *PagedBuffer[K]) CopyPagesFromHost(src [][]K, prev *PagedBuffer[K]) (vclock.Duration, error) {
	n := 0
	for _, pg := range src {
		n += len(pg)
	}
	if n > b.n {
		return 0, fmt.Errorf("gpusim: H2D copy of %d elements into buffer of %d", n, b.n)
	}
	if err := b.dev.check(fault.OpH2D); err != nil {
		return 0, err // no bytes moved: the device image is unchanged
	}
	if prev != nil {
		prev.floor.Store(pageClock.Add(1))
	}
	floor := b.floor.Load()
	b.pages, b.stamps = make([][]K, len(src)), make([]uint64, len(src))
	for p, pg := range src {
		if prev != nil && p < len(prev.pages) && sameBytes(prev.pages[p], pg) {
			b.pages[p], b.stamps[p] = prev.pages[p], prev.stamps[p]
			continue
		}
		c := make([]K, len(pg), b.pageLen)
		copy(c, pg)
		b.pages[p], b.stamps[p] = c, floor
	}
	var z K
	bytes := int64(n) * int64(sizeofAny(z))
	b.dev.bytesH2D.Add(bytes)
	return b.dev.CopyDuration(bytes), nil
}

// CopyRegionFromHost copies src into the buffer at element offset off,
// within one page — the per-node synchronisation primitive of the
// synchronized update method (Section 5.6). Each call pays the full
// T_init, which is exactly why that method is "bounded by the
// communication initialization latency". A page this buffer shares is
// copied before the write.
func (b *PagedBuffer[K]) CopyRegionFromHost(off int, src []K) (vclock.Duration, error) {
	p, o := off/b.pageLen, off%b.pageLen
	if off < 0 || p >= len(b.pages) || o+len(src) > len(b.pages[p]) {
		return 0, fmt.Errorf("gpusim: H2D region copy out of range [%d, %d) of %d", off, off+len(src), b.n)
	}
	if err := b.dev.check(fault.OpH2D); err != nil {
		return 0, err // no bytes moved: the device image is unchanged
	}
	if floor := b.floor.Load(); b.stamps[p] < floor {
		c := make([]K, len(b.pages[p]), b.pageLen)
		copy(c, b.pages[p])
		b.pages[p], b.stamps[p] = c, floor
	}
	copy(b.pages[p][o:], src)
	var z K
	bytes := int64(len(src)) * int64(sizeofAny(z))
	b.dev.bytesH2D.Add(bytes)
	return b.dev.CopyDuration(bytes), nil
}

// sameBytes reports whether pages a and b hold the same keys, compared
// as bytes: a key type has no padding and no two encodings of one value.
func sameBytes[K keys.Key](a, b []K) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	n := len(a) * int(unsafe.Sizeof(a[0]))
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), n), unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), n))
}
