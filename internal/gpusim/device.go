// Package gpusim simulates the discrete CUDA GPU of the paper's
// evaluation platforms (GeForce GTX 780 / 770M) closely enough to
// reproduce the HB+-tree's behaviour without GPU hardware.
//
// The simulation has two halves:
//
//   - Functional: device memory is charged against the card's 3 GiB
//     and kernels execute the paper's warp-parallel node-search
//     algorithm (Snippet 3) on the device-resident replica, computing
//     real results that tests verify against the host tree. The host
//     computes a warp's answer with the host tree's own node search
//     (internal/simd), a query group a level at a time (kernels.go):
//     the implicit kernel's level step is simd.DescendLevel, which
//     loads the group's nodes before it searches them, and searches an
//     8- or 16-slot node with Snippet 2's hierarchical shape, any other
//     by Snippet 1's count; the regular kernel's lines take
//     simd.SearchHierarchical.
//     A sorted batch runs the same kernel bodies; its launch also
//     counts, level by level, the distinct nodes the batch's frontier
//     touches, which is the shared-descent transaction account. A
//     replica's bytes are a version of the host tree's own memory (PagedBuffer):
//     mirroring it moves no bytes but is charged as the copy it stands
//     for. Query and result staging buffers (Buffer) hold real storage
//     that host<->device copies fill and drain.
//
//   - Temporal: every operation returns a virtual duration from the
//     paper's own cost model (Section 5.4): copies cost
//     T_init + bytes/Bandwidth; kernels cost K_init plus the larger of
//     the memory-bandwidth bound (coalesced 64-byte transactions, the
//     transfer size the paper found optimal in Section 5.2) and the
//     latency bound (dependent accesses per level, hidden across the
//     resident-warp concurrency). The caller composes these durations
//     on a vclock.Timeline to reproduce bucket pipelining and double
//     buffering.
package gpusim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hbtree/internal/fault"
	"hbtree/internal/keys"
	"hbtree/internal/platform"
	"hbtree/internal/vclock"
)

// ErrOutOfMemory is returned when an allocation exceeds the device
// memory capacity — the fundamental limitation that motivates the
// HB+-tree's hybrid layout (Section 1).
var ErrOutOfMemory = fmt.Errorf("gpusim: device memory exhausted")

// Device is one simulated GPU.
type Device struct {
	cfg platform.GPU

	mu   sync.Mutex
	used int64

	// Simulated hardware event counters.
	bytesH2D     atomic.Int64
	bytesD2H     atomic.Int64
	transactions atomic.Int64 // coalesced 64 B device-memory transactions
	kernels      atomic.Int64
	faults       atomic.Int64 // injected faults surfaced by this device

	// inj, when set, is consulted before every kernel launch, transfer
	// and allocation; a non-nil Check result fails the operation with
	// that typed error and no functional effect.
	inj atomic.Pointer[fault.Injector]

	workers int // host goroutines emulating the SM array
}

// SetInjector attaches (or, with nil, detaches) a fault injector. Safe
// to call while the device is serving.
func (d *Device) SetInjector(in *fault.Injector) { d.inj.Store(in) }

// Injector returns the attached fault injector, or nil.
func (d *Device) Injector() *fault.Injector { return d.inj.Load() }

// check consults the attached injector for one operation class.
func (d *Device) check(op fault.Op) error {
	in := d.inj.Load()
	if in == nil {
		return nil
	}
	if err := in.Check(op); err != nil {
		d.faults.Add(1)
		return err
	}
	return nil
}

// New creates a device from the platform model.
func New(cfg platform.GPU) *Device {
	return &Device{cfg: cfg, workers: cfg.SMs}
}

// Config returns the device's platform model.
func (d *Device) Config() platform.GPU { return d.cfg }

// MemUsed reports allocated device memory in bytes.
func (d *Device) MemUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// MemFree reports remaining device memory in bytes.
func (d *Device) MemFree() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.MemBytes - d.used
}

// Counters is a snapshot of the device's simulated hardware counters.
type Counters struct {
	BytesH2D     int64
	BytesD2H     int64
	Transactions int64
	Kernels      int64
	Faults       int64 // injected faults surfaced by this device
}

// Counters returns the current counter snapshot.
func (d *Device) Counters() Counters {
	return Counters{
		BytesH2D:     d.bytesH2D.Load(),
		BytesD2H:     d.bytesD2H.Load(),
		Transactions: d.transactions.Load(),
		Kernels:      d.kernels.Load(),
		Faults:       d.faults.Load(),
	}
}

// Buffer is a typed device-memory allocation.
type Buffer[K any] struct {
	dev  *Device
	data []K
	size int64
}

// Malloc allocates a device buffer of n elements, failing when the
// card's memory capacity would be exceeded.
func Malloc[K any](d *Device, n int) (*Buffer[K], error) {
	var z K
	size := int64(n) * int64(sizeofAny(z))
	if err := d.alloc(size); err != nil {
		return nil, err
	}
	return &Buffer[K]{dev: d, data: make([]K, n), size: size}, nil
}

// alloc takes size bytes of device memory for a new buffer.
func (d *Device) alloc(size int64) error {
	if err := d.check(fault.OpMalloc); err != nil {
		return fmt.Errorf("gpusim: malloc of %d bytes: %w", size, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+size > d.cfg.MemBytes {
		return fmt.Errorf("%w: need %d bytes, %d free", ErrOutOfMemory, size, d.cfg.MemBytes-d.used)
	}
	d.used += size
	return nil
}

// release returns size bytes of device memory.
func (d *Device) release(size int64) {
	d.mu.Lock()
	d.used -= size
	d.mu.Unlock()
}

// sizeofAny returns the byte size of supported element types.
func sizeofAny(v any) int {
	switch v.(type) {
	case uint32, int32, float32:
		return 4
	case uint64, int64, float64:
		return 8
	case uint8, int8, bool:
		return 1
	default:
		return 8
	}
}

// Free releases the buffer's device memory. Double frees are no-ops.
func (b *Buffer[K]) Free() {
	if b.data == nil {
		return
	}
	b.dev.release(b.size)
	b.data = nil
}

// Data exposes the staging storage; kernels read queries from it and
// write results into it. A replica (PagedBuffer) is read-only.
func (b *Buffer[K]) Data() []K { return b.data }

// Len returns the element count.
func (b *Buffer[K]) Len() int { return len(b.data) }

// CopyFromHost copies src into the buffer (cudaMemcpyHostToDevice) and
// returns the transfer's virtual duration T_init + bytes/Bandwidth.
func (b *Buffer[K]) CopyFromHost(src []K) (vclock.Duration, error) {
	if len(src) > len(b.data) {
		return 0, fmt.Errorf("gpusim: H2D copy of %d elements into buffer of %d", len(src), len(b.data))
	}
	if err := b.dev.check(fault.OpH2D); err != nil {
		return 0, err // no bytes moved: the device image is unchanged
	}
	copy(b.data, src)
	var z K
	return b.dev.h2d(int64(len(src)) * int64(sizeofAny(z))), nil
}

// CopyToHost copies the first len(dst) elements back to the host
// (cudaMemcpyDeviceToHost) and returns the virtual duration.
func (b *Buffer[K]) CopyToHost(dst []K) (vclock.Duration, error) {
	if len(dst) > len(b.data) {
		return 0, fmt.Errorf("gpusim: D2H copy of %d elements from buffer of %d", len(dst), len(b.data))
	}
	if err := b.dev.check(fault.OpD2H); err != nil {
		return 0, err // no bytes moved: dst is untouched
	}
	copy(dst, b.data)
	var z K
	bytes := int64(len(dst)) * int64(sizeofAny(z))
	b.dev.bytesD2H.Add(bytes)
	return b.dev.CopyDuration(bytes), nil
}

// h2d counts a host-to-device transfer of bytes and returns its
// duration.
func (d *Device) h2d(bytes int64) vclock.Duration {
	d.bytesH2D.Add(bytes)
	return d.CopyDuration(bytes)
}

// CopyDuration is the paper's transfer cost model:
// T = T_init + bytes / Bandwidth.
func (d *Device) CopyDuration(bytes int64) vclock.Duration {
	return d.cfg.TInit + vclock.Duration(float64(bytes)/d.cfg.PCIeBWBytes*1e9)
}

// KernelDuration models the execution time of a tree-search kernel over
// nQueries queries, each traversing `levels` node levels with
// transPerLevel dependent 64-byte transactions per level, using
// threadsPerQuery GPU threads (T in Section 5.3: 8 for 64-bit, 16 for
// 32-bit keys). divergence in (0, 1] derates the sustained bandwidth for
// kernels with extra warp divergence, such as the three-phase regular
// node search; pass 1 for the implicit kernel.
//
// The model is K_init + max(bandwidth bound, latency bound, compute):
// with enough resident warps the latency of dependent accesses is hidden
// and the kernel runs at the memory-bandwidth roofline — the regime the
// paper identifies as the GPU's advantage; small grids fall back to the
// latency bound.
func (d *Device) KernelDuration(nQueries int, levels float64, transPerLevel, threadsPerQuery int, divergence float64) vclock.Duration {
	if nQueries == 0 {
		return 0
	}
	trans := int64(float64(nQueries) * levels * float64(transPerLevel))
	d.transactions.Add(trans)
	d.kernels.Add(1)

	eff := d.cfg.KernelBWEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	if divergence > 0 && divergence <= 1 {
		eff *= divergence
	}
	bw := vclock.Duration(float64(trans*keys.LineBytes) / (d.cfg.MemBWBytes * eff) * 1e9)

	conc := d.cfg.ConcurrentQueries(threadsPerQuery)
	waves := math.Ceil(float64(nQueries) / float64(conc))
	lat := vclock.Duration(waves * levels * float64(transPerLevel) * float64(d.cfg.MemLatency))

	compute := vclock.Duration(float64(trans)/float64(d.cfg.SMs)) * d.cfg.CostWarpStep / 32

	t := bw
	if lat > t {
		t = lat
	}
	if compute > t {
		t = compute
	}
	return d.cfg.KInit + t
}

// KernelDurationShared models the execution time of a shared-descent
// kernel over a sorted batch: nQueries queries descending `levels`
// levels, but issuing only `trans` distinct memory transactions (as
// returned by the sorted kernels) instead of the unsorted kernel's
// nQueries*levels*transPerLevel. The bandwidth bound is charged on the
// actual transactions at the device's un-derated efficiency — sorted
// runs walk each level's node array in address order, so there is no
// divergence penalty to apply. The latency bound scales the wave count
// by the share of queries that lead a run (followers receive their
// child slot from the leader's resident line, off the dependent-miss
// chain). Compute is NOT scaled down: every query still resolves its
// own child slot, so the term keeps the unsorted kernel's shape and
// acts as the floor for heavily shared batches.
func (d *Device) KernelDurationShared(nQueries int, levels float64, trans int64, transPerLevel, threadsPerQuery int) vclock.Duration {
	if nQueries == 0 || levels <= 0 {
		return 0
	}
	d.transactions.Add(trans)
	d.kernels.Add(1)

	eff := d.cfg.KernelBWEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	bw := vclock.Duration(float64(trans*keys.LineBytes) / (d.cfg.MemBWBytes * eff) * 1e9)

	// Equivalent full-paying queries: the leaders. trans/(levels*tpl)
	// is how many per-query descents' worth of transactions were issued.
	leaders := float64(trans) / (levels * float64(transPerLevel))
	if leaders > float64(nQueries) {
		leaders = float64(nQueries)
	}
	conc := d.cfg.ConcurrentQueries(threadsPerQuery)
	waves := math.Ceil(leaders / float64(conc))
	lat := vclock.Duration(waves * levels * float64(transPerLevel) * float64(d.cfg.MemLatency))

	fullTrans := float64(nQueries) * levels * float64(transPerLevel)
	compute := vclock.Duration(fullTrans/float64(d.cfg.SMs)) * d.cfg.CostWarpStep / 32

	t := bw
	if lat > t {
		t = lat
	}
	if compute > t {
		t = compute
	}
	return d.cfg.KInit + t
}
