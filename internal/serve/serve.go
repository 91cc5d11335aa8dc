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
// # Snapshot reads and the epoch registry
//
// A Server publishes tree versions through an epoch.Registry
// — the generation-stamped snapshot registry shared with ShardedServer.
// Read operations pin the registry's current state, run against it
// without blocking, and unpin; batch updates and rebuilds construct a
// successor tree aside — a clone patched with the batch, or a fresh
// build — and publish it as a new epoch. Readers that pinned the old
// epoch finish on it undisturbed; its device-resident I-segment replica
// is released when the last pin drains. This mirrors the paper's
// asynchronous update mode (Section 5.6) at the serving layer: the
// index remains searchable for the full duration of a batch update, at
// the cost of the clone/rebuild work and a transiently doubled
// I-segment footprint on the device.
//
// A standalone Server owns a one-slot registry; shard members of a
// ShardedServer share one registry whose vector holds every shard's
// tree and whose metadata carries the split-key table — which is what
// gives the sharded layer atomic cross-shard cuts and online
// rebalancing for free (see sharded.go and DESIGN §6).
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

// Server wraps a core.Tree with a reader/writer contract: read
// operations run against a pinned epoch of the snapshot registry and
// never block on writers; Update and Rebuild build a successor version
// aside and publish it as a new epoch. The zero value is not usable;
// construct with NewServer.
type Server[K keys.Key] struct {
	// The epoch registry holding the published versions and this
	// server's slot in its vector. A standalone server owns a
	// one-slot registry (ownReg); a shard member shares the
	// ShardedServer's registry, and its slot index is restamped when a
	// rebalance reorders the vector. The writer "mutex" is a capacity-1
	// channel so UpdateCtx/RebuildCtx can abandon the wait when the
	// caller's deadline expires.
	reg    *epoch.Registry[*core.Tree[K], shardMeta[K]]
	slot   atomic.Int32
	ownReg bool
	wsem   chan struct{}

	opt       core.Options
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
	retry RetryOptions

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
	deadlines   atomic.Int64                  // requests failed with ErrDeadlineExceeded
	repairs     atomic.Int64                  // background replica repairs completed
	inplace     atomic.Int64                  // batches applied in place (delta fast path)
	cloneFB     atomic.Int64                  // batches that fell back to clone-and-swap
	clonedNodes atomic.Int64                  // inner nodes copied by the clone path
	clonedBytes atomic.Int64                  // host bytes copied by the clone path
}

// NewServer wraps t behind the snapshot-read contract: reads never
// block on batch updates or rebuilds. Load-balance parameters are
// resolved eagerly when the balanced mode is enabled, so the first
// concurrent lookups never contend on discovery.
func NewServer[K keys.Key](t *core.Tree[K]) *Server[K] {
	s := newServer(t)
	s.reg = epoch.New([]*core.Tree[K]{t}, shardMeta[K]{}, func(tr *core.Tree[K]) { tr.Close() })
	s.ownReg = true
	return s
}

// newShardMember wraps t as one shard of a shared registry: the server
// reads and publishes through reg at the given slot and does not own
// the registry's lifetime (ShardedServer closes it once for all
// shards).
func newShardMember[K keys.Key](t *core.Tree[K], reg *epoch.Registry[*core.Tree[K], shardMeta[K]], slot int) *Server[K] {
	s := newServer(t)
	s.reg = reg
	s.slot.Store(int32(slot))
	return s
}

func newServer[K keys.Key](t *core.Tree[K]) *Server[K] {
	if t.Options().LoadBalance {
		if _, ok := t.Balance(); !ok {
			t.Discover()
		}
	}
	attachEnvInjector(t.Device())
	var r RetryOptions
	r.fill()
	return &Server[K]{
		opt:       t.Options(),
		pointCost: t.PointLookupCost(),
		wsem:      make(chan struct{}, 1),
		brk:       breaker.New(breaker.Options{}),
		retry:     r,
	}
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

// acquire pins the current tree version for one read operation; the
// returned pin must be released with Unpin.
//
// A shard member resolves its tree from the pinned state: the slot
// index is validated against the pinned metadata and, when a
// just-published rebalance has restamped it, the member locates itself
// in the pinned vector instead — so a read never mixes a new index
// with an old epoch. Acquiring on a shard server that a rebalance has
// replaced panics: retired members must not be used for new reads
// (ShardedServer's read paths resolve members through the pin, which
// makes that unreachable).
func (s *Server[K]) acquire() (*core.Tree[K], epoch.Pin[*core.Tree[K], shardMeta[K]]) {
	tree, p, ok := s.pinCurrent()
	if !ok {
		panic("serve: read on a shard server replaced by rebalance")
	}
	return tree, p
}

// pinCurrent pins the registry and resolves this server's tree in the
// pinned state. ok is false — with nothing pinned — when the server is
// no longer part of the current state (replaced by a rebalance).
func (s *Server[K]) pinCurrent() (*core.Tree[K], epoch.Pin[*core.Tree[K], shardMeta[K]], bool) {
	p := s.reg.Pin()
	m := p.Meta()
	if len(m.subs) == 0 {
		// Standalone registry: one slot, never restamped.
		return p.Get(0), p, true
	}
	if i := int(s.slot.Load()); i < len(m.subs) && m.subs[i] == s {
		return p.Get(i), p, true
	}
	// Slow path: the pin and the slot stamp straddle a rebalance —
	// locate this member in the pinned vector itself.
	for j, sub := range m.subs {
		if sub == s {
			return p.Get(j), p, true
		}
	}
	p.Unpin()
	return nil, epoch.Pin[*core.Tree[K], shardMeta[K]]{}, false
}

// publish installs t as this server's slot in a new epoch. Callers hold
// the writer slot. In-flight readers of the old version finish on it;
// its device buffers are released when the last pin drains.
func (s *Server[K]) publish(t *core.Tree[K]) {
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

// Metrics returns the current counter snapshot.
func (s *Server[K]) Metrics() Metrics {
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
		Deadlines:       s.deadlines.Load(),
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

// ResetMetrics zeroes the serving counters (benchmark A/B phases). The
// breaker's state and trip history are left alone — they describe the
// device, not the measurement window.
func (s *Server[K]) ResetMetrics() {
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
	s.deadlines.Store(0)
	s.repairs.Store(0)
	s.inplace.Store(0)
	s.cloneFB.Store(0)
	s.clonedNodes.Store(0)
	s.clonedBytes.Store(0)
}

// VirtualTime returns the accumulated virtual serving time.
func (s *Server[K]) VirtualTime() vclock.Duration {
	return vclock.Duration(s.vtimeNs.Load())
}

func (s *Server[K]) addVirtual(d vclock.Duration) {
	if d > 0 {
		s.vtimeNs.Add(int64(d))
	}
}

// PointLookupCost returns the modelled virtual cost charged per
// individually served lookup.
func (s *Server[K]) PointLookupCost() vclock.Duration { return s.pointCost }

// Swaps returns how many snapshot versions this server has published.
func (s *Server[K]) Swaps() int64 { return s.swaps.Load() }

// LevelWidths returns the current tree version's per-level key-slot
// widths (root first; nil for the regular variant) — the realised
// layout the STATS surface reports.
func (s *Server[K]) LevelWidths() []int {
	tree, p := s.acquire()
	w := tree.LevelWidths()
	p.Unpin()
	return w
}

// LayoutAdvice recommends per-level root widths for the current tree
// from the probe histogram this server has accumulated (nil = stay
// uniform / not enough signal). It is advisory: the serving layer never
// relayouts online; operators feed it back as a build flag.
func (s *Server[K]) LayoutAdvice() []int {
	m := s.Metrics()
	tree, p := s.acquire()
	adv := tree.LayoutAdvice(m.LevelProbes[:])
	p.Unpin()
	return adv
}

// Degraded reports whether the server is in degraded mode: the breaker
// over the device is open and batches are answered by the CPU fallback.
// The Coalescer's fault-aware admission sheds earlier while this holds.
func (s *Server[K]) Degraded() bool { return s.brk.State() == breaker.Open }

// Lookup resolves one query on the CPU path against the current
// version. Each call is charged the full serial descent on the virtual
// clock — the per-request serving cost a Coalescer amortises away.
func (s *Server[K]) Lookup(q K) (K, bool) {
	tree, p := s.acquire()
	v, ok := s.lookupPinned(tree, q)
	p.Unpin()
	return v, ok
}

// lookupPinned is the point-lookup body against an already-pinned
// tree: ShardedServer resolves the tree from its own pin and calls
// this, so shard reads never re-pin per member.
func (s *Server[K]) lookupPinned(tree *core.Tree[K], q K) (K, bool) {
	v, ok := tree.Lookup(q)
	s.lookups.Add(1)
	s.addVirtual(s.pointCost)
	return v, ok
}

// LookupBatch runs the shared-descent batch search against the current
// version into freshly allocated result slices; it is
// LookupBatchSortedInto's allocating form. Concurrent batches share the
// device and keep isolated stats. The batch's simulated makespan is
// charged to the virtual clock.
func (s *Server[K]) LookupBatch(queries []K) ([]K, []bool, core.SearchStats, error) {
	values := make([]K, len(queries))
	found := make([]bool, len(queries))
	stats, err := s.LookupBatchSortedInto(queries, values, found)
	if err != nil {
		return nil, nil, stats, err
	}
	return values, found, stats, nil
}

// LookupBatchSortedInto is the server's batch search: the shared-descent
// path (core.Tree.LookupBatchSortedInto) into the caller's slices (at
// least len(queries) long each), results in caller order; the steady
// state allocates nothing. Presorted duplicate-free batches — the
// Coalescer's steady state — are resolved at one node probe per
// distinct node per level. Injected device faults are retried with jittered backoff and, past the
// retry budget or with the breaker open, the batch is answered by the
// host-only search — callers see correct results either way.
func (s *Server[K]) LookupBatchSortedInto(queries []K, values []K, found []bool) (core.SearchStats, error) {
	tree, p := s.acquire()
	stats, err := s.lookupBatchSortedPinned(tree, queries, values, found)
	p.Unpin()
	return stats, err
}

// lookupBatchSortedPinned is the batch-search body against an
// already-pinned tree, with the resilient retry/fallback discipline and
// this server's counters.
func (s *Server[K]) lookupBatchSortedPinned(tree *core.Tree[K], queries []K, values []K, found []bool) (core.SearchStats, error) {
	stats, err := s.lookupBatchResilient(tree, queries, values, found)
	s.noteBatch(len(queries), stats, err)
	return stats, err
}

func (s *Server[K]) noteBatch(n int, stats core.SearchStats, err error) {
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

// RangeQuery returns up to count pairs with key >= start against the
// current version.
func (s *Server[K]) RangeQuery(start K, count int) []keys.Pair[K] {
	tree, p := s.acquire()
	defer p.Unpin()
	return tree.RangeQuery(start, count, nil)
}

// Scan collects up to count pairs starting at the first key >= start by
// walking a cursor against the current version. Cursors must not
// outlive the version pin, so the walk is materialised before
// returning.
func (s *Server[K]) Scan(start K, count int) []keys.Pair[K] {
	tree, p := s.acquire()
	defer p.Unpin()
	return scanTree(tree, start, count, make([]keys.Pair[K], 0, count))
}

// scanTree materialises up to count pairs from a pinned tree's cursor
// into out — shared by Server.Scan and the sharded stitch loops.
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

// Update applies a batch of updates to the regular variant: the batch
// lands on a successor of the current version — an in-place fork when
// it fits the gapped leaves, a patched clone otherwise — which is then
// atomically published. Readers proceed against the old version for the
// whole duration, and a failed batch leaves the published version
// untouched.
//
// A batch whose host-side mutation succeeded but whose device re-sync
// faulted is still acknowledged: the (replica-stale) version is kept,
// reads on it degrade to the CPU path, and a background repair
// re-mirrors it (with heal-on-next-mirror as the fallback) — acked
// writes are never lost to an injected fault.
func (s *Server[K]) Update(ops []cpubtree.Op[K], method core.UpdateMethod) (core.UpdateStats, error) {
	return s.UpdateCtx(context.Background(), ops, method)
}

// UpdateCtx is Update with a caller deadline on the writer-serialisation
// wait: if ctx expires before the batch starts, ErrDeadlineExceeded is
// returned and the published version is untouched. A batch that has
// started is always run to completion (partial batches would lose acked
// writes).
func (s *Server[K]) UpdateCtx(ctx context.Context, ops []cpubtree.Op[K], method core.UpdateMethod) (core.UpdateStats, error) {
	if err := s.acquireWriter(ctx); err != nil {
		return core.UpdateStats{}, err
	}
	defer s.releaseWriter()
	cur := s.reg.Current(int(s.slot.Load()))

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
	if s.opt.Variant == core.Regular {
		// The batch needed structural work (split/merge or gap
		// overflow) — the clone path below is the fallback.
		s.cloneFB.Add(1)
	}

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

// Rebuild replaces the implicit variant's contents: the replacement
// tree is built aside and atomically published.
func (s *Server[K]) Rebuild(pairs []keys.Pair[K]) (core.UpdateStats, error) {
	return s.RebuildCtx(context.Background(), pairs)
}

// RebuildCtx is Rebuild with a caller deadline on the writer wait, with
// the same started-batches-complete semantics as UpdateCtx.
func (s *Server[K]) RebuildCtx(ctx context.Context, pairs []keys.Pair[K]) (core.UpdateStats, error) {
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
func (s *Server[K]) ackStaleSync(t *core.Tree[K], err error) error {
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
// expires first.
func (s *Server[K]) acquireWriter(ctx context.Context) error {
	select {
	case s.wsem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.wsem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.deadlines.Add(1)
		return ErrDeadlineExceeded
	}
}

func (s *Server[K]) releaseWriter() { <-s.wsem }

func (s *Server[K]) noteUpdate(ops int, stats core.UpdateStats, err error) {
	if err == nil {
		s.updates.Add(int64(ops))
		s.addVirtual(stats.Total())
	}
}

// Stats reports the tree geometry of the current version.
func (s *Server[K]) Stats() cpubtree.Stats {
	tree, p := s.acquire()
	defer p.Unpin()
	return tree.Stats()
}

// Describe returns the current version's human-readable report.
func (s *Server[K]) Describe() string {
	tree, p := s.acquire()
	defer p.Unpin()
	return tree.Describe()
}

// NumPairs returns the stored pair count of the current version.
func (s *Server[K]) NumPairs() int {
	tree, p := s.acquire()
	defer p.Unpin()
	return tree.NumPairs()
}

// DeviceCounters snapshots the simulated GPU's hardware counters. The
// device is shared by every snapshot, so the counters span versions.
func (s *Server[K]) DeviceCounters() gpusim.Counters {
	tree, p := s.acquire()
	defer p.Unpin()
	return tree.Device().Counters()
}

// Options returns the wrapped tree's configuration (fixed across
// snapshot versions).
func (s *Server[K]) Options() core.Options { return s.opt }

// Tree exposes the current version's tree. Callers bypass the
// reader/writer contract when touching it directly; do so only while
// nothing else uses the server.
func (s *Server[K]) Tree() *core.Tree[K] {
	return s.reg.Current(int(s.slot.Load()))
}

// Close releases the current version's device buffers. Readers still
// pinning the version finish first — the buffers are released when the
// last pin drains. A shard member does not own
// its registry and must be closed through its ShardedServer; Close on
// it only quiesces the writer slot. Close is idempotent.
func (s *Server[K]) Close() {
	s.wsem <- struct{}{}
	defer s.releaseWriter()
	if s.ownReg {
		s.reg.Close()
	}
}
