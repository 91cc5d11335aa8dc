// Package serve is the concurrency layer over the HB+-tree: it wraps a
// core.Tree behind a reader/writer contract and coalesces point lookups
// arriving from many goroutines into the bucket-sized batches the
// heterogeneous search path is built for.
//
// The paper's throughput argument rests on batched lookups (Section
// 5.4): the four-step CPU-GPU search amortises the PCIe transfer and
// kernel-launch overheads over a bucket of M queries. A serving
// deployment, however, receives point requests from many concurrent
// connections, and core.Tree — like the paper's prototype — is written
// for one caller at a time when it mutates state. Server provides the
// contract; Coalescer turns concurrent point lookups into LookupBatch
// calls under a size-or-deadline window, so the serving layer recovers
// the paper's batched throughput from a point-request workload.
//
// # One engine, T shards, one epoch registry
//
// Server partitions the key space across T shard trees — one by
// default (NewServer) — each behind an unexported member that owns its
// writer slot, breaker and counters (sharded.go, DESIGN §6). Every
// shard's tree version lives in one epoch.Registry, whose metadata
// carries the split-key table. Read operations pin the registry's
// current state, run against it without blocking, and unpin; batch
// updates and rebuilds construct a successor tree aside — a clone
// patched with the batch, or a fresh build — and publish it as a new
// epoch. Readers that pinned the old epoch finish on it undisturbed;
// its device-resident I-segment replica is released when the last pin
// drains. This mirrors the paper's asynchronous update mode (Section
// 5.6) at the serving layer: the index remains searchable for the full
// duration of a batch update, at the cost of the clone/rebuild work and
// a transiently doubled I-segment footprint on the device. The same
// registry gives atomic cross-shard cuts and online rebalancing.
//
// Virtual-time accounting follows requests through the layer: point
// lookups served individually are charged the modelled serial descent
// (core.Tree.PointLookupCost), while coalesced batches are charged the
// simulated makespan of their heterogeneous execution (SimTime), which
// is what makes the two serving disciplines comparable on the paper's
// calibrated clock.
package serve

import (
	"context"
	"sync/atomic"

	"hbtree/internal/breaker"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/epoch"
	"hbtree/internal/fault"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/vclock"
)

// member serves one shard of a Server: one slot of the engine's epoch
// registry, the writer slot that serialises that shard's updates, its
// breaker and retry policy, and its counters. Only the engine reaches
// it — reads through lookupPinned/lookupBatchSortedPinned with a tree
// resolved from the engine's own pin, writes through update/rebuild on
// the shard's update pump.
type member[K keys.Key] struct {
	// The engine's registry and this member's slot in its vector; the
	// slot index is restamped when a rebalance reorders the vector. The
	// writer "mutex" is a capacity-1 channel so update/rebuild can
	// abandon the wait when the caller's deadline expires.
	reg  *epoch.Registry[*core.Tree[K], shardMeta[K]]
	slot atomic.Int32
	wsem chan struct{}

	pointCost vclock.Duration // modelled cost of one per-request lookup

	// In-place delta updates (DESIGN §10): batches whose footprint fits
	// the gapped leaves publish a shared-pool fork instead of a deep
	// clone. plan is writer-owned planning scratch (guarded by wsem) so
	// steady-state classification allocates nothing.
	plan cpubtree.DeltaPlan[K]

	// Resilience: the circuit breaker over GPU-sim faults and the
	// bounded-retry policy. The breaker lives here, not on the tree —
	// snapshot swaps replace trees but error history must survive them.
	brk   *breaker.Breaker
	retry retryOptions

	// repairing single-flights the background replica repair (see
	// repair.go).
	repairing atomic.Bool

	// Serving metrics (atomic: updated outside the locks).
	vtimeNs     atomic.Int64                  // accumulated virtual serving time, ns
	lookups     atomic.Int64                  // point lookups served individually
	batched     atomic.Int64                  // queries served through LookupBatch
	batches     atomic.Int64                  // LookupBatch calls
	nodeProbes  atomic.Int64                  // inner-node probes issued by sorted batches
	probesSaved atomic.Int64                  // probes the shared descent avoided
	levelProbes [core.StatLevels]atomic.Int64 // kernel transactions per level, root first
	updates     atomic.Int64                  // update/rebuild operations applied
	swaps       atomic.Int64                  // snapshot publications
	gpuFaults   atomic.Int64                  // injected device faults observed
	retries     atomic.Int64                  // GPU-path retry attempts after a fault
	fbBatches   atomic.Int64                  // batches answered by the CPU fallback
	fbQueries   atomic.Int64                  // queries answered by the CPU fallback
	repairs     atomic.Int64                  // background replica repairs completed
	inplace     atomic.Int64                  // batches applied in place (delta fast path)
	cloneFB     atomic.Int64                  // batches that fell back to clone-and-swap
	clonedNodes atomic.Int64                  // inner nodes copied by the clone path
	clonedBytes atomic.Int64                  // host bytes copied by the clone path
}

// newMember wraps t as the shard at slot of reg. Load-balance
// parameters are resolved eagerly when the balanced mode is enabled, so
// the first concurrent lookups never contend on discovery.
func newMember[K keys.Key](t *core.Tree[K], reg *epoch.Registry[*core.Tree[K], shardMeta[K]], slot int) *member[K] {
	if t.Options().LoadBalance {
		if _, ok := t.Balance(); !ok {
			t.Discover()
		}
	}
	attachEnvInjector(t.Device())
	var r retryOptions
	r.fill()
	s := &member[K]{
		reg:       reg,
		pointCost: t.PointLookupCost(),
		wsem:      make(chan struct{}, 1),
		brk:       breaker.New(breaker.Options{}),
		retry:     r,
	}
	s.slot.Store(int32(slot))
	return s
}

// attachEnvInjector wires the process-wide HBTREE_FAULT injector into a
// device that does not already carry one — the hook the CI fault lane
// uses to exercise every serving test under injected faults.
func attachEnvInjector(d *gpusim.Device) {
	if d.Injector() == nil {
		if in := fault.FromEnv(); in != nil {
			d.SetInjector(in)
		}
	}
}

// pinCurrent pins the registry and resolves this member's tree in the
// pinned state: the slot index is validated against the pinned metadata
// and, when a just-published rebalance has restamped it, the member
// locates itself in the pinned vector instead. ok is false — with
// nothing pinned — when a rebalance has retired the member.
func (s *member[K]) pinCurrent() (*core.Tree[K], epoch.Pin[*core.Tree[K], shardMeta[K]], bool) {
	p := s.reg.Pin()
	m := p.Meta()
	if i := int(s.slot.Load()); i < len(m.subs) && m.subs[i] == s {
		return p.Get(i), p, true
	}
	for j, sub := range m.subs {
		if sub == s {
			return p.Get(j), p, true
		}
	}
	p.Unpin()
	return nil, epoch.Pin[*core.Tree[K], shardMeta[K]]{}, false
}

// publish installs t as this member's slot in a new epoch. Callers hold
// the writer slot. In-flight readers of the old version finish on it;
// its device buffers are released when the last pin drains.
func (s *member[K]) publish(t *core.Tree[K]) {
	s.reg.Publish(int(s.slot.Load()), t)
	s.swaps.Add(1)
}

// Metrics is a snapshot of the serving counters.
type Metrics struct {
	Lookups        int64 // point lookups served individually
	BatchedQueries int64 // queries served through LookupBatch
	Batches        int64 // LookupBatch calls
	Updates        int64 // update/rebuild operations applied
	Swaps          int64 // snapshot publications

	// Shared-descent accounting (sorted batches only): inner-node probes
	// the kernel issued, and the probes run-sharing avoided relative to
	// one full descent per query.
	NodeProbes  int64
	ProbesSaved int64

	// LevelProbes breaks NodeProbes down by tree level (root first) —
	// the observed histogram core.Tree.LayoutAdvice consumes.
	LevelProbes [core.StatLevels]int64

	// Degraded-mode counters (see DESIGN §7).
	GPUFaults       int64         // injected device faults observed
	Retries         int64         // GPU-path retries after a fault
	FallbackBatches int64         // batches answered host-only
	FallbackQueries int64         // queries answered host-only
	Deadlines       int64         // requests failed with ErrDeadlineExceeded
	Repairs         int64         // background replica repairs completed
	BreakerTrips    int64         // closed/half-open -> open transitions
	BreakerState    breaker.State // current breaker state

	// Write-path amplification accounting (DESIGN §10): batches applied
	// in place on a gapped-leaf fork vs batches that fell back to the
	// clone-and-swap path, with the clone path's host copy footprint.
	InPlaceApplied int64
	CloneFallbacks int64
	ClonedNodes    int64
	ClonedBytes    int64

	// VirtualTime is the accumulated virtual serving time: per-request
	// lookups charge the modelled serial descent, batches charge their
	// simulated makespan.
	VirtualTime vclock.Duration
}

// metrics returns the member's counter snapshot. Deadlines stays zero:
// expiries are counted by the engine, which returns them.
func (s *member[K]) metrics() Metrics {
	m := Metrics{
		Lookups:         s.lookups.Load(),
		BatchedQueries:  s.batched.Load(),
		Batches:         s.batches.Load(),
		Updates:         s.updates.Load(),
		Swaps:           s.swaps.Load(),
		NodeProbes:      s.nodeProbes.Load(),
		ProbesSaved:     s.probesSaved.Load(),
		GPUFaults:       s.gpuFaults.Load(),
		Retries:         s.retries.Load(),
		FallbackBatches: s.fbBatches.Load(),
		FallbackQueries: s.fbQueries.Load(),
		Repairs:         s.repairs.Load(),
		InPlaceApplied:  s.inplace.Load(),
		CloneFallbacks:  s.cloneFB.Load(),
		ClonedNodes:     s.clonedNodes.Load(),
		ClonedBytes:     s.clonedBytes.Load(),
		BreakerTrips:    s.brk.Counters().Trips,
		BreakerState:    s.brk.State(),
		VirtualTime:     vclock.Duration(s.vtimeNs.Load()),
	}
	for i := range m.LevelProbes {
		m.LevelProbes[i] = s.levelProbes[i].Load()
	}
	return m
}

// resetMetrics zeroes the member's serving counters. The breaker's
// state and trip history are left alone — they describe the device,
// not the measurement window.
func (s *member[K]) resetMetrics() {
	s.vtimeNs.Store(0)
	s.lookups.Store(0)
	s.batched.Store(0)
	s.batches.Store(0)
	s.nodeProbes.Store(0)
	s.probesSaved.Store(0)
	for i := range s.levelProbes {
		s.levelProbes[i].Store(0)
	}
	s.updates.Store(0)
	s.swaps.Store(0)
	s.gpuFaults.Store(0)
	s.retries.Store(0)
	s.fbBatches.Store(0)
	s.fbQueries.Store(0)
	s.repairs.Store(0)
	s.inplace.Store(0)
	s.cloneFB.Store(0)
	s.clonedNodes.Store(0)
	s.clonedBytes.Store(0)
}

func (s *member[K]) addVirtual(d vclock.Duration) {
	if d > 0 {
		s.vtimeNs.Add(int64(d))
	}
}

// degraded reports whether the member's breaker over the device is
// open, so its batches are answered by the CPU fallback.
func (s *member[K]) degraded() bool { return s.brk.State() == breaker.Open }

// lookupPinned resolves one query on the CPU path against a tree the
// engine pinned. Each call is charged the full serial descent on the
// virtual clock — the per-request serving cost a Coalescer amortises
// away.
func (s *member[K]) lookupPinned(tree *core.Tree[K], q K) (K, bool) {
	v, ok := tree.Lookup(q)
	s.lookups.Add(1)
	s.addVirtual(s.pointCost)
	return v, ok
}

// lookupBatchSortedPinned runs the shared-descent batch search
// (core.Tree.LookupBatchSortedInto) against a tree the engine pinned,
// into the caller's slices, with the resilient retry/fallback
// discipline and this member's counters; the batch's simulated makespan
// is charged to the virtual clock.
func (s *member[K]) lookupBatchSortedPinned(tree *core.Tree[K], queries []K, values []K, found []bool) (core.SearchStats, error) {
	stats, err := s.lookupBatchResilient(tree, queries, values, found)
	s.noteBatch(len(queries), stats, err)
	return stats, err
}

func (s *member[K]) noteBatch(n int, stats core.SearchStats, err error) {
	if err != nil {
		return
	}
	s.batched.Add(int64(n))
	s.batches.Add(1)
	s.addVirtual(stats.SimTime)
	if stats.NodeProbes > 0 {
		s.nodeProbes.Add(stats.NodeProbes)
		s.probesSaved.Add(stats.ProbesSaved)
		for i, p := range stats.LevelProbes {
			if p != 0 {
				s.levelProbes[i].Add(p)
			}
		}
	}
}

// scanTree materialises up to count pairs from a pinned tree's cursor
// into out — shared by the engine's stitch loops.
func scanTree[K keys.Key](t *core.Tree[K], start K, count int, out []keys.Pair[K]) []keys.Pair[K] {
	cur := t.Seek(start)
	for len(out) < count {
		p, ok := cur.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// update applies one shard's batch: it lands on a successor of the
// current version — an in-place fork when it fits the gapped leaves, a
// patched clone otherwise — which is then atomically published. Readers
// proceed against the old version for the whole duration, and a failed
// batch leaves the published version untouched. If ctx expires before
// the writer slot is free, ErrDeadlineExceeded is returned and nothing
// changes; a batch that has started is always run to completion
// (partial batches would lose acked writes).
//
// A batch whose host-side mutation succeeded but whose device re-sync
// faulted is still acknowledged: the (replica-stale) version is kept,
// reads on it degrade to the CPU path, and a background repair
// re-mirrors it (with heal-on-next-mirror as the fallback) — acked
// writes are never lost to an injected fault.
func (s *member[K]) update(ctx context.Context, ops []cpubtree.Op[K], method core.UpdateMethod) (core.UpdateStats, error) {
	if err := s.acquireWriter(ctx); err != nil {
		return core.UpdateStats{}, err
	}
	defer s.releaseWriter()
	cur := s.reg.Current(int(s.slot.Load()))
	if cur.Options().Variant != core.Regular {
		// The implicit variant takes only rebuilds. core.Update refuses
		// it before reading the tree, so the published version gives
		// that error without a clone or a device mirror.
		return cur.Update(ops, method)
	}

	// Fast path: a batch that fits the gapped leaves lands in place on a
	// shared-pool fork of the current epoch — no deep clone, no device
	// transfer. Readers pinned to older epochs keep their exact slot
	// images (the fork only appends to gap slots no published epoch
	// reads), so publication is the same epoch swap as the clone path.
	if fork, stats, ok := cur.ApplyDelta(ops, &s.plan); ok {
		s.publish(fork)
		s.inplace.Add(1)
		s.noteUpdate(len(ops), stats, nil)
		return stats, nil
	}
	// The batch needed structural work (split/merge or gap overflow) —
	// the clone path below is the fallback.
	s.cloneFB.Add(1)

	cn, cb := cur.CloneFootprint()
	clone, err := cur.Clone()
	if err != nil {
		return core.UpdateStats{}, err
	}
	stats, err := clone.Update(ops, method)
	err = s.ackStaleSync(clone, err)
	if err != nil {
		clone.Close()
		return stats, err
	}
	stats.ClonedNodes, stats.ClonedBytes = cn, cb
	s.clonedNodes.Add(int64(cn))
	s.clonedBytes.Add(cb)
	s.publish(clone)
	s.noteUpdate(len(ops), stats, err)
	return stats, nil
}

// rebuild replaces the shard's contents (implicit variant): the
// replacement tree is built aside and atomically published, with the
// same deadline and started-batches-complete semantics as update.
func (s *member[K]) rebuild(ctx context.Context, pairs []keys.Pair[K]) (core.UpdateStats, error) {
	if err := s.acquireWriter(ctx); err != nil {
		return core.UpdateStats{}, err
	}
	defer s.releaseWriter()
	nt, stats, err := s.reg.Current(int(s.slot.Load())).Rebuilt(pairs)
	if err != nil {
		return stats, err
	}
	err = s.ackStaleSync(nt, err)
	if err != nil {
		nt.Close()
		return stats, err
	}
	s.publish(nt)
	s.noteUpdate(len(pairs), stats, err)
	return stats, nil
}

// ackStaleSync classifies a batch-update error: an injected fault that
// left the tree replica-stale means the host mutation itself succeeded —
// the batch is acknowledged (nil), only the device image lags, and a
// background repair is kicked off to re-mirror it. Any other error is
// returned unchanged.
func (s *member[K]) ackStaleSync(t *core.Tree[K], err error) error {
	if err == nil {
		return nil
	}
	if fault.Is(err) && t.ReplicaStale() {
		s.gpuFaults.Add(1)
		s.brk.Failure()
		s.maybeRepair()
		return nil
	}
	return err
}

// acquireWriter takes the writer slot, abandoning the wait when ctx
// expires first. The expiry is not counted here: the engine counts it
// once, where it returns ErrDeadlineExceeded to the caller.
func (s *member[K]) acquireWriter(ctx context.Context) error {
	select {
	case s.wsem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.wsem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ErrDeadlineExceeded
	}
}

func (s *member[K]) releaseWriter() { <-s.wsem }

func (s *member[K]) noteUpdate(ops int, stats core.UpdateStats, err error) {
	if err == nil {
		s.updates.Add(int64(ops))
		s.addVirtual(stats.Total())
	}
}
