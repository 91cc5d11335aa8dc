package gpusim

import (
	"fmt"
	"slices"

	"hbtree/internal/fault"
	"hbtree/internal/keys"
	"hbtree/internal/vclock"
)

// PagedBuffer is a device I-segment replica: a device allocation,
// charged like a Buffer, whose contents are a version of host memory
// rather than a copy of it. The buffer holds a page table of host pages
// — one page for a flat array, pages of a fixed length for the regular
// tree's last-level pool — as it stood when the buffer was last mirrored
// or synced. Its pages are read-only: the host copies a page a replica
// holds before it writes to it (cpubtree.RegularTree.ShareInner), so
// each replica reads exactly the version it was synced to. Transfers
// move no bytes but are charged and fault-checked as the copies they
// stand for: H2D bytes and durations are those of a real cudaMemcpy.
type PagedBuffer[K keys.Key] struct {
	dev     *Device
	pages   [][]K
	pageLen int
	n       int
	size    int64
	freed   bool
}

// MallocPaged allocates a replica of n elements in pages of pageLen
// elements, failing as Malloc does. It reads no pages until Mirror.
func MallocPaged[K keys.Key](d *Device, n, pageLen int) (*PagedBuffer[K], error) {
	size := int64(n) * int64(keys.Size[K]())
	if err := d.alloc(size); err != nil {
		return nil, err
	}
	return &PagedBuffer[K]{dev: d, pageLen: pageLen, n: n, size: size}, nil
}

// Free releases the buffer's device memory. Double frees, and frees of
// a nil buffer, are no-ops.
func (b *PagedBuffer[K]) Free() {
	if b == nil || b.freed {
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

// Mirror makes the buffer read the host pages src, every one but the
// last of pageLen elements: a cudaMemcpy of the whole image, charged
// and fault-checked as CopyFromHost would charge it. The buffer records
// src's page table as it stands; the caller must not write those pages
// afterwards. A faulted mirror leaves the buffer on its previous pages.
func (b *PagedBuffer[K]) Mirror(src [][]K) (vclock.Duration, error) {
	n := 0
	for _, pg := range src {
		n += len(pg)
	}
	if n > b.n {
		return 0, fmt.Errorf("gpusim: H2D copy of %d elements into buffer of %d", n, b.n)
	}
	if err := b.dev.check(fault.OpH2D); err != nil {
		return 0, err
	}
	b.pages = slices.Clone(src)
	return b.dev.h2d(int64(n) * int64(keys.Size[K]())), nil
}

// SyncNodes is the per-node synchronisation of the synchronized update
// method (Section 5.6). For each node i in nodes, the nodeLen elements
// at element offset i*nodeLen, within one page, are one H2D copy,
// charged and fault-checked in order; each pays the full T_init, which
// is why that method is "bounded by the communication initialization
// latency". The buffer then reads src's page for each synced node, and
// with it the page's other nodes. A faulted or out-of-range copy stops
// the sync and leaves the buffer on its previous pages; synced counts
// the copies charged before it.
func (b *PagedBuffer[K]) SyncNodes(src [][]K, nodes []int32, nodeLen int) (synced int, err error) {
	bytes := int64(nodeLen) * int64(keys.Size[K]())
	for _, i := range nodes {
		off := int(i) * nodeLen
		if off < 0 || off+nodeLen > b.n || off/b.pageLen >= min(len(src), len(b.pages)) ||
			off%b.pageLen+nodeLen > len(src[off/b.pageLen]) {
			return synced, fmt.Errorf("gpusim: H2D region copy out of range [%d, %d) of %d", off, off+nodeLen, b.n)
		}
		if err := b.dev.check(fault.OpH2D); err != nil {
			return synced, err
		}
		b.dev.h2d(bytes)
		synced++
	}
	for _, i := range nodes {
		p := int(i) * nodeLen / b.pageLen
		b.pages[p] = src[p]
	}
	return synced, nil
}
