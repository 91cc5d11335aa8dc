package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/epoch"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/vclock"
)

// Key-space sharded serving (DESIGN §6). A single Server serialises all
// writers behind one writer slot, and a batch that does not fit its
// gapped leaves' delta regions (DESIGN §10) — or any batch on a tree
// built without gaps, or a rebuild — costs O(data). ShardedServer
// partitions the key space across T independent trees, each behind its
// own shard Server with a dedicated update-pump goroutine (the per-shard
// worker pool standing in for NUMA placement until real NUMA is
// observable). A clone fallback copies 1/T of the data and shards
// rebuild concurrently, so that cost drops to O(data/T) and update
// throughput scales with cores; point lookups route by key and stay
// allocation-free; range reads stitch ordered results across shard
// boundaries.
//
// All T shard versions live in ONE epoch.Registry: the registry's
// vector holds every shard's current tree and its metadata carries the
// split-key table. A per-shard update publishes only its own slot
// (sharing the other T-1 by reference), while a rebalance installs a
// new table and a new tree set as one whole-vector transition — which
// is what makes ScanConsistent/RangeQueryConsistent an atomic
// cross-shard cut at the cost of a single pin, and lets the shard
// layout change online without ever blocking readers.

// shardMeta is the registry metadata published atomically with the
// shard tree vector: the split-key table, the shard servers serving
// each slot, and a table generation bumped by every rebalance.
type shardMeta[K keys.Key] struct {
	bounds []K          // lower bounds of shards 1..T-1
	subs   []*Server[K] // shard servers, index-aligned with the vector
	gen    uint64       // split-key table generation
}

// route returns the shard owning key k under this table: the number of
// shard lower bounds at or below k. Manual binary search keeps the hot
// lookup path free of closures and allocations.
func (m *shardMeta[K]) route(k K) int {
	lo, hi := 0, len(m.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k < m.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// shardJob is one unit of write work handed to an update pump: a batch
// of routed ops, a rebuild of one shard's key range, or a rebalance
// barrier. ctx carries the dispatcher's deadline into the pump's writer
// wait; sub binds the job to the shard server it was routed to at
// dispatch time.
type shardJob[K keys.Key] struct {
	ctx     context.Context
	sub     *Server[K]
	pump    int
	ops     []cpubtree.Op[K]
	pairs   []keys.Pair[K]
	rebuild bool
	barrier bool
	method  core.UpdateMethod
	done    chan<- shardDone
}

// shardDone reports one pump's job outcome back to the dispatcher.
type shardDone struct {
	stats core.UpdateStats
	err   error
}

// ShardedServer partitions the key space across T shard Servers behind
// one epoch registry. Shard i (i > 0) serves keys in
// [bounds[i-1], bounds[i]); shard 0 serves everything below bounds[0]
// and the last shard everything from its lower bound up. The bounds are
// set at construction from the initial key distribution and move only
// through rebalancing (SplitShard/MergeShards/CheckRebalance), each
// move one atomic epoch transition.
//
// Contract (DESIGN §6): point and batch lookups observe the epoch
// current at their pin; a cross-shard RangeQuery or Scan re-pins as the
// stitch walks the key space, so it is per-segment consistent —
// ordered, never torn within a segment, gap- and duplicate-free across
// concurrent rebalances — but not a single atomic cut.
// ScanConsistent/RangeQueryConsistent pin ONE epoch for the whole
// stitch and are the atomic cross-shard cut. Update splits its ops by
// shard and applies the per-shard sub-batches concurrently (each one a
// clone-aside-and-publish on 1/T of the data); ops for the same key
// keep their submission order because routing preserves relative order
// within a shard. Rebuild partitions the replacement pairs by the
// current bounds and rebuilds all shards concurrently.
type ShardedServer[K keys.Key] struct {
	reg *epoch.Registry[*core.Tree[K], shardMeta[K]]
	opt core.Options // shard build options; Device is the shared card

	// Per-shard update pumps: one goroutine per shard applies that
	// shard's write jobs serially, so writers on different shards never
	// contend while a single shard's writes stay ordered. pumpMu
	// excludes Close and rebalancing (which replace the channel set)
	// from in-flight dispatches.
	pumps  []chan shardJob[K]
	pumpWG sync.WaitGroup
	pumpMu sync.RWMutex
	closed bool

	// deadlines counts writes abandoned at the dispatch layer (pump send
	// or outcome wait); per-shard waits are counted by the sub-servers.
	deadlines atomic.Int64

	// updScratch pools UpdateCtx's per-flush routing scratch (the
	// per-shard op groups and the job list), so the steady-state update
	// pump allocates nothing at the dispatch layer. Scratch is returned
	// to the pool only after every outcome was collected — an abandoned
	// dispatch leaves its jobs (which alias the scratch's op groups)
	// running on the pumps.
	updScratch sync.Pool

	// Rebalancing state (rebalance.go). rbMu serialises the detector
	// and the manual split/merge entry points.
	rbMu       sync.Mutex
	rbLastGen  uint64
	rbLast     []int64
	rebalances atomic.Int64
	splits     atomic.Int64
	merges     atomic.Int64
	lastRb     atomic.Pointer[string]
	rbStop     chan struct{}
	rbWG       sync.WaitGroup

	// Counters of shard servers replaced by rebalances, folded into the
	// aggregates so metrics stay continuous across layout changes.
	retMu   sync.Mutex
	retired Metrics

	// layoutHook, when set, runs after every committed rebalance
	// transition with the new table generation and shard count — the
	// durability layer's barrier writer (DESIGN §8).
	hookMu     sync.Mutex
	layoutHook func(gen uint64, shards int)

	closeOnce sync.Once
}

// SetLayoutHook registers fn to run after every committed rebalance
// transition, with the new split-key table generation and shard count.
// The hook runs on the rebalancing goroutine while the layout change is
// still excluding dispatches, so it must not write through the server.
// A nil fn clears the hook.
func (s *ShardedServer[K]) SetLayoutHook(fn func(gen uint64, shards int)) {
	s.hookMu.Lock()
	s.layoutHook = fn
	s.hookMu.Unlock()
}

// notifyLayout invokes the registered layout hook, if any.
func (s *ShardedServer[K]) notifyLayout(gen uint64, shards int) {
	s.hookMu.Lock()
	fn := s.layoutHook
	s.hookMu.Unlock()
	if fn != nil {
		fn(gen, shards)
	}
}

// BuildSharded builds a ShardedServer over T trees from sorted,
// distinct pairs: the pairs are cut into T equal contiguous runs, the
// run boundaries become the initial shard bounds, and every shard tree
// is built with opt on one shared simulated device (opt.Device, or the
// first shard's device when nil). shards <= 0 selects GOMAXPROCS.
func BuildSharded[K keys.Key](pairs []keys.Pair[K], opt core.Options, shards int) (*ShardedServer[K], error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if len(pairs) < shards {
		return nil, fmt.Errorf("serve: %d pairs cannot populate %d shards", len(pairs), shards)
	}
	bounds := make([]K, 0, shards-1)
	trees := make([]*core.Tree[K], 0, shards)
	for i := 0; i < shards; i++ {
		lo, hi := i*len(pairs)/shards, (i+1)*len(pairs)/shards
		if i > 0 {
			bounds = append(bounds, pairs[lo].Key)
		}
		tree, err := core.Build(pairs[lo:hi], opt)
		if err != nil {
			for _, t := range trees {
				t.Close()
			}
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		if opt.Device == nil {
			// All shards share one simulated card, the deployment the
			// paper envisions for a database with many indexes.
			opt.Device = tree.Device()
		}
		trees = append(trees, tree)
	}
	return newShardedFromTrees(trees, bounds, 1), nil
}

// newShardedFromTrees assembles a ShardedServer over already-built
// shard trees: trees[i] serves [bounds[i-1], bounds[i]) (open-ended at
// the edges) and gen seeds the split-key table generation — 1 for a
// fresh build, the recovered manifest's generation when the durability
// layer restores a layout. The trees were built from one Options policy
// on one device; the server takes both from the first tree — with the
// defaults the build resolved (a caller's zero BucketSize is not the
// coalescer's batch size) — for Options and for the shard trees later
// rebalances build. Ownership of the trees passes to the server.
func newShardedFromTrees[K keys.Key](trees []*core.Tree[K], bounds []K, gen uint64) *ShardedServer[K] {
	opt := trees[0].Options()
	opt.Device = trees[0].Device()
	s := &ShardedServer[K]{opt: opt}
	subs := make([]*Server[K], len(trees))
	for i, t := range trees {
		subs[i] = newShardMember(t, nil, i)
	}
	s.reg = epoch.New(trees, shardMeta[K]{bounds: bounds, subs: subs, gen: gen},
		func(t *core.Tree[K]) { t.Close() })
	for _, sub := range subs {
		sub.reg = s.reg
	}
	s.pumps = make([]chan shardJob[K], len(trees))
	for i := range s.pumps {
		s.pumps[i] = make(chan shardJob[K])
		s.pumpWG.Add(1)
		go s.pumpLoop(s.pumps[i])
	}
	return s
}

// NewShardedServer serves an existing tree as T shards and takes
// ownership of it. One shard adopts t as the only member — nothing is
// rebuilt; more reshard it: its pairs are materialised in key order and
// rebuilt as T shard trees on the same simulated device, and t is closed.
// shards <= 0 selects GOMAXPROCS. t is closed on every error path too.
func NewShardedServer[K keys.Key](t *core.Tree[K], shards int) (*ShardedServer[K], error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards == 1 {
		return newShardedFromTrees([]*core.Tree[K]{t}, nil, 1), nil
	}
	defer t.Close()
	opt := t.Options()
	opt.Device = t.Device()
	return BuildSharded(materialisePairs(t), opt, shards)
}

// materialisePairs walks a tree's cursor from the bottom of the key
// space and collects every stored pair in key order.
func materialisePairs[K keys.Key](t *core.Tree[K]) []keys.Pair[K] {
	out := make([]keys.Pair[K], 0, t.NumPairs())
	var zero K
	cur := t.Seek(zero)
	for {
		p, ok := cur.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// members returns the current shard servers. The slice is immutable
// once published; rebalances install a fresh one.
func (s *ShardedServer[K]) members() []*Server[K] { return s.reg.Meta().subs }

// Shards returns the current shard count T.
func (s *ShardedServer[K]) Shards() int { return s.reg.Len() }

// LevelWidths returns the first shard tree's per-level key-slot widths
// (all shards are built from one Options policy, so their layouts agree
// up to height differences from uneven shard sizes).
func (s *ShardedServer[K]) LevelWidths() []int { return s.members()[0].LevelWidths() }

// LayoutAdvice recommends per-level root widths from the first shard's
// probe histogram (see Server.LayoutAdvice).
func (s *ShardedServer[K]) LayoutAdvice() []int { return s.members()[0].LayoutAdvice() }

// Bounds returns the current shard lower bounds (len T-1).
func (s *ShardedServer[K]) Bounds() []K { return s.reg.Meta().bounds }

// Epoch returns the registry's current generation stamp: it advances on
// every per-shard publication and every rebalance transition.
func (s *ShardedServer[K]) Epoch() uint64 { return s.reg.Epoch() }

// pumpLoop is an update worker: it applies routed write jobs serially
// against whatever shard server each job carries, and echoes barrier
// jobs back (the rebalancer's drain handshake). Workers are anonymous —
// shard identity lives in the job, so the worker set survives layout
// changes unchanged.
func (s *ShardedServer[K]) pumpLoop(ch chan shardJob[K]) {
	defer s.pumpWG.Done()
	for job := range ch {
		if job.barrier {
			job.done <- shardDone{}
			continue
		}
		var d shardDone
		if job.rebuild {
			d.stats, d.err = job.sub.RebuildCtx(job.ctx, job.pairs)
		} else {
			d.stats, d.err = job.sub.UpdateCtx(job.ctx, job.ops, job.method)
		}
		job.done <- d
	}
}

// dispatch routes one write batch: build receives the pinned shard
// table and returns the per-shard jobs, which are handed to the pumps
// and their outcomes merged — counters sum across shards, while each
// virtual-time component reports the slowest shard (the makespan of the
// concurrent execution).
//
// The jobs are built and sent under one registry pin and the pump read
// lock, so a rebalance cannot slide between routing and hand-off: every
// job reaches the pump targeting a shard server that is current at send
// time, and the rebalancer's barrier drains it before any layout
// change.
//
// ctx bounds both the pump hand-off (a stalled pump no longer parks the
// dispatcher) and the outcome wait. The done channel is buffered to the
// job count, so an abandoned dispatch never blocks a pump delivering a
// late outcome — the job still completes on its shard, the caller just
// stops waiting (per-shard atomicity: a deadline reply means "outcome
// unknown on some shards", exactly like any distributed write timeout).
func (s *ShardedServer[K]) dispatch(ctx context.Context, build func(m *shardMeta[K]) ([]shardJob[K], error)) (core.UpdateStats, error) {
	s.pumpMu.RLock()
	if s.closed {
		s.pumpMu.RUnlock()
		return core.UpdateStats{}, ErrClosed
	}
	p := s.reg.Pin()
	m := p.Meta()
	jobs, err := build(&m)
	p.Unpin()
	if err != nil {
		s.pumpMu.RUnlock()
		return core.UpdateStats{}, err
	}
	done := make(chan shardDone, len(jobs))
	n := 0
	expired := false
	for _, job := range jobs {
		job.ctx = ctx
		job.done = done
		select {
		case s.pumps[job.pump] <- job:
			n++
		case <-ctx.Done():
			expired = true
		}
		if expired {
			break
		}
	}
	s.pumpMu.RUnlock()
	var agg core.UpdateStats
	var firstErr error
	okJobs, inplaceJobs := 0, 0
	maxDur := func(a, b vclock.Duration) vclock.Duration {
		if b > a {
			return b
		}
		return a
	}
	for ; n > 0; n-- {
		var d shardDone
		select {
		case d = <-done:
		case <-ctx.Done():
			expired = true
		}
		if expired {
			break
		}
		if d.err != nil {
			if firstErr == nil {
				firstErr = d.err
			}
			continue
		}
		agg.Ops += d.stats.Ops
		agg.Applied += d.stats.Applied
		agg.NotFound += d.stats.NotFound
		agg.Structural += d.stats.Structural
		agg.DirtyNodes += d.stats.DirtyNodes
		agg.ClonedNodes += d.stats.ClonedNodes
		agg.ClonedBytes += d.stats.ClonedBytes
		agg.HostTime = maxDur(agg.HostTime, d.stats.HostTime)
		agg.SyncTime = maxDur(agg.SyncTime, d.stats.SyncTime)
		agg.LSegBuild = maxDur(agg.LSegBuild, d.stats.LSegBuild)
		agg.ISegBuild = maxDur(agg.ISegBuild, d.stats.ISegBuild)
		okJobs++
		if d.stats.InPlace {
			inplaceJobs++
		}
	}
	// The aggregate is in-place only when every touched shard was.
	agg.InPlace = okJobs > 0 && inplaceJobs == okJobs
	if expired {
		s.deadlines.Add(1)
		if firstErr == nil {
			firstErr = ErrDeadlineExceeded
		}
	}
	return agg, firstErr
}

// Update splits ops by shard and applies the sub-batches concurrently,
// one clone-aside-and-publish per touched shard. Per-shard sub-batches
// keep their submission order, so same-key ops retain last-write-wins
// semantics; shards that fail leave their published version untouched
// while other shards may have applied (per-shard, not cross-shard,
// atomicity — see the type contract).
func (s *ShardedServer[K]) Update(ops []cpubtree.Op[K], method core.UpdateMethod) (core.UpdateStats, error) {
	return s.UpdateCtx(context.Background(), ops, method)
}

// updateScratch is the pooled routing scratch of one UpdateCtx flush.
type updateScratch[K keys.Key] struct {
	groups [][]cpubtree.Op[K]
	jobs   []shardJob[K]
}

// UpdateCtx is Update with a caller deadline over the whole dispatch:
// pump hand-off, per-shard writer waits, and outcome collection.
func (s *ShardedServer[K]) UpdateCtx(ctx context.Context, ops []cpubtree.Op[K], method core.UpdateMethod) (core.UpdateStats, error) {
	sc, _ := s.updScratch.Get().(*updateScratch[K])
	if sc == nil {
		sc = &updateScratch[K]{}
	}
	stats, err := s.dispatch(ctx, func(m *shardMeta[K]) ([]shardJob[K], error) {
		if cap(sc.groups) < len(m.subs) {
			sc.groups = make([][]cpubtree.Op[K], len(m.subs))
		}
		groups := sc.groups[:len(m.subs)]
		for i := range groups {
			groups[i] = groups[i][:0]
		}
		for _, op := range ops {
			i := m.route(op.Key)
			groups[i] = append(groups[i], op)
		}
		sc.groups = groups
		jobs := sc.jobs[:0]
		for i, g := range groups {
			if len(g) == 0 {
				continue
			}
			jobs = append(jobs, shardJob[K]{sub: m.subs[i], pump: i, ops: g, method: method})
		}
		sc.jobs = jobs
		return jobs, nil
	})
	if err == nil {
		// Error-free means every pump delivered its outcome, so nothing
		// aliases the scratch any more; abandoned dispatches drop theirs.
		s.updScratch.Put(sc)
	}
	return stats, err
}

// Rebuild partitions the sorted replacement pairs by the current shard
// bounds and rebuilds every shard concurrently (implicit variant). The
// replacement must leave no shard empty: an empty shard tree cannot be
// built (a later merge can retire a shard, a rebuild cannot).
func (s *ShardedServer[K]) Rebuild(pairs []keys.Pair[K]) (core.UpdateStats, error) {
	return s.RebuildCtx(context.Background(), pairs)
}

// RebuildCtx is Rebuild with a caller deadline over the whole dispatch.
func (s *ShardedServer[K]) RebuildCtx(ctx context.Context, pairs []keys.Pair[K]) (core.UpdateStats, error) {
	return s.dispatch(ctx, func(m *shardMeta[K]) ([]shardJob[K], error) {
		parts := make([][]keys.Pair[K], len(m.subs))
		lo := 0
		for i := range m.subs {
			hi := len(pairs)
			if i < len(m.bounds) {
				b := m.bounds[i]
				hi = lo + sort.Search(len(pairs)-lo, func(j int) bool { return pairs[lo+j].Key >= b })
			}
			parts[i] = pairs[lo:hi]
			lo = hi
		}
		for i, part := range parts {
			if len(part) == 0 {
				return nil, fmt.Errorf("serve: rebuild leaves shard %d empty", i)
			}
		}
		jobs := make([]shardJob[K], 0, len(m.subs))
		for i, part := range parts {
			jobs = append(jobs, shardJob[K]{sub: m.subs[i], pump: i, pairs: part, rebuild: true})
		}
		return jobs, nil
	})
}

// Lookup routes one point lookup to the shard owning q under a single
// registry pin; the path is allocation-free (binary-search route plus
// the shard's pinned lookup).
func (s *ShardedServer[K]) Lookup(q K) (K, bool) {
	p := s.reg.Pin()
	m := p.Meta()
	i := m.route(q)
	v, ok := m.subs[i].lookupPinned(p.Get(i), q)
	p.Unpin()
	return v, ok
}

// LookupBatch answers the queries in caller order into freshly
// allocated result slices. It serves a co-sorted copy of the queries
// through LookupBatchSortedInto — so each touched shard gets exactly one
// sorted run, all under one registry pin (an atomic cross-shard cut) —
// and scatters the results back through the permutation. The stats are
// LookupBatchSortedInto's: SimTime sums the shard runs.
func (s *ShardedServer[K]) LookupBatch(queries []K) ([]K, []bool, core.SearchStats, error) {
	n := len(queries)
	sorted := slices.Clone(queries)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	keys.SortWithPerm(sorted, perm)
	sv, sf := make([]K, n), make([]bool, n)
	stats, err := s.LookupBatchSortedInto(sorted, sv, sf)
	if err != nil {
		return nil, nil, stats, err
	}
	values, found := make([]K, n), make([]bool, n)
	for i, p := range perm {
		values[p], found[p] = sv[i], sf[i]
	}
	return values, found, stats, nil
}

// RangeQuery returns up to count pairs with key >= start, stitched in
// key order across shard boundaries. Each segment re-pins the registry
// and routes its continuation key under the fresh table, so the stitch
// is gap- and duplicate-free even across a concurrent rebalance: the
// continuation token is the next key, never a shard index. Each segment
// is a consistent snapshot; the whole stitch is not one atomic cut —
// use RangeQueryConsistent for that.
func (s *ShardedServer[K]) RangeQuery(start K, count int) []keys.Pair[K] {
	out := make([]keys.Pair[K], 0, count)
	from := start
	for len(out) < count {
		p := s.reg.Pin()
		m := p.Meta()
		i := m.route(from)
		out = append(out, p.Get(i).RangeQuery(from, count-len(out), nil)...)
		last := i == len(m.subs)-1
		if !last {
			from = m.bounds[i]
		}
		p.Unpin()
		if last {
			break
		}
	}
	return out
}

// Scan is the cursor-walk counterpart of RangeQuery with the same
// per-segment stitching.
func (s *ShardedServer[K]) Scan(start K, count int) []keys.Pair[K] {
	out := make([]keys.Pair[K], 0, count)
	from := start
	for len(out) < count {
		p := s.reg.Pin()
		m := p.Meta()
		i := m.route(from)
		out = scanTree(p.Get(i), from, count, out)
		last := i == len(m.subs)-1
		if !last {
			from = m.bounds[i]
		}
		p.Unpin()
		if last {
			break
		}
	}
	return out
}

// ScanConsistent is Scan against ONE pinned epoch: every shard segment
// reads the same generation, so the result is an atomic cross-shard cut
// — no interleaved update or rebalance is ever partially visible, at
// exactly the cost of a single-slot pin. The pin holds all T shard
// versions alive for the duration, so a slow consistent scan delays
// device-replica reclamation of concurrently superseded versions.
func (s *ShardedServer[K]) ScanConsistent(start K, count int) []keys.Pair[K] {
	p := s.reg.Pin()
	defer p.Unpin()
	m := p.Meta()
	out := make([]keys.Pair[K], 0, count)
	from := start
	for i := m.route(from); i < len(m.subs) && len(out) < count; i++ {
		if i > 0 && m.bounds[i-1] > from {
			from = m.bounds[i-1]
		}
		out = scanTree(p.Get(i), from, count, out)
	}
	return out
}

// RangeQueryConsistent is RangeQuery against one pinned epoch — the
// same atomic cross-shard cut as ScanConsistent.
func (s *ShardedServer[K]) RangeQueryConsistent(start K, count int) []keys.Pair[K] {
	p := s.reg.Pin()
	defer p.Unpin()
	m := p.Meta()
	out := make([]keys.Pair[K], 0, count)
	from := start
	for i := m.route(from); i < len(m.subs) && len(out) < count; i++ {
		if i > 0 && m.bounds[i-1] > from {
			from = m.bounds[i-1]
		}
		out = append(out, p.Get(i).RangeQuery(from, count-len(out), nil)...)
	}
	return out
}

// addMetrics folds o into m (BreakerState is aggregated separately).
func addMetrics(m *Metrics, o Metrics) {
	m.Lookups += o.Lookups
	m.BatchedQueries += o.BatchedQueries
	m.Batches += o.Batches
	m.Updates += o.Updates
	m.Swaps += o.Swaps
	m.NodeProbes += o.NodeProbes
	m.ProbesSaved += o.ProbesSaved
	for i := range o.LevelProbes {
		m.LevelProbes[i] += o.LevelProbes[i]
	}
	m.GPUFaults += o.GPUFaults
	m.Retries += o.Retries
	m.FallbackBatches += o.FallbackBatches
	m.FallbackQueries += o.FallbackQueries
	m.Deadlines += o.Deadlines
	m.Repairs += o.Repairs
	m.InPlaceApplied += o.InPlaceApplied
	m.CloneFallbacks += o.CloneFallbacks
	m.ClonedNodes += o.ClonedNodes
	m.ClonedBytes += o.ClonedBytes
	m.BreakerTrips += o.BreakerTrips
	m.VirtualTime += o.VirtualTime
}

// absorbRetired folds a replaced shard server's counters into the
// retired accumulator so aggregates stay continuous across rebalances.
// Callers hold pumpMu exclusively (the member is quiesced).
func (s *ShardedServer[K]) absorbRetired(sub *Server[K]) {
	m := sub.Metrics()
	s.retMu.Lock()
	addMetrics(&s.retired, m)
	s.retMu.Unlock()
}

// Metrics returns the serving counters summed across current shards
// plus every shard retired by a rebalance. The aggregate BreakerState
// reports the worst current shard (open > half-open > closed), so one
// degraded shard is visible at the top level.
func (s *ShardedServer[K]) Metrics() Metrics {
	s.retMu.Lock()
	agg := s.retired
	s.retMu.Unlock()
	for _, sub := range s.members() {
		m := sub.Metrics()
		addMetrics(&agg, m)
		agg.BreakerState = worseState(agg.BreakerState, m.BreakerState)
	}
	agg.Deadlines += s.deadlines.Load()
	return agg
}

// ShardMetrics returns each current shard's own serving counters,
// index-aligned with the shard order (ascending key ranges).
func (s *ShardedServer[K]) ShardMetrics() []Metrics {
	subs := s.members()
	out := make([]Metrics, len(subs))
	for i, sub := range subs {
		out[i] = sub.Metrics()
	}
	return out
}

// ShardStats returns each shard tree's geometry, index-aligned with the
// shard order.
func (s *ShardedServer[K]) ShardStats() []cpubtree.Stats {
	subs := s.members()
	out := make([]cpubtree.Stats, len(subs))
	for i, sub := range subs {
		out[i] = sub.Stats()
	}
	return out
}

// ResetMetrics zeroes every shard's serving counters and the retired
// accumulator.
func (s *ShardedServer[K]) ResetMetrics() {
	s.retMu.Lock()
	s.retired = Metrics{}
	s.retMu.Unlock()
	s.deadlines.Store(0)
	for _, sub := range s.members() {
		sub.ResetMetrics()
	}
}

// Swaps returns the total snapshot publications across all shards,
// including shards since retired by rebalances.
func (s *ShardedServer[K]) Swaps() int64 {
	s.retMu.Lock()
	n := s.retired.Swaps
	s.retMu.Unlock()
	for _, sub := range s.members() {
		n += sub.Swaps()
	}
	return n
}

// Stats aggregates the shard trees' geometry: pair counts and segment
// bytes sum; height and per-lookup line touches report the deepest
// shard.
func (s *ShardedServer[K]) Stats() cpubtree.Stats {
	var agg cpubtree.Stats
	for _, sub := range s.members() {
		st := sub.Stats()
		agg.NumPairs += st.NumPairs
		agg.InnerBytes += st.InnerBytes
		agg.LeafBytes += st.LeafBytes
		if st.Height > agg.Height {
			agg.Height = st.Height
		}
		if st.LinesPerQuery > agg.LinesPerQuery {
			agg.LinesPerQuery = st.LinesPerQuery
		}
	}
	return agg
}

// NumPairs returns the stored pair count across all shards, under one
// pin so a concurrent rebalance never double-counts moving keys.
func (s *ShardedServer[K]) NumPairs() int {
	p := s.reg.Pin()
	defer p.Unpin()
	n := 0
	for i := 0; i < p.Len(); i++ {
		n += p.Get(i).NumPairs()
	}
	return n
}

// Describe concatenates each shard's report under a shard header.
func (s *ShardedServer[K]) Describe() string {
	subs := s.members()
	var b strings.Builder
	fmt.Fprintf(&b, "sharded serving: %d shards by key range\n", len(subs))
	for i, sub := range subs {
		fmt.Fprintf(&b, "--- shard %d ---\n", i)
		b.WriteString(sub.Describe())
	}
	return b.String()
}

// DeviceCounters snapshots the shared simulated GPU's hardware
// counters (all shards live on one card).
func (s *ShardedServer[K]) DeviceCounters() gpusim.Counters {
	return s.opt.Device.Counters()
}

// Options returns the shard trees' common configuration.
func (s *ShardedServer[K]) Options() core.Options { return s.opt }

// PointLookupCost returns the modelled per-request lookup cost of the
// first shard (shards share one configuration and key distribution).
func (s *ShardedServer[K]) PointLookupCost() vclock.Duration {
	return s.members()[0].PointLookupCost()
}

// Close stops the rebalancer, drains the update pumps — jobs already
// dispatched complete and deliver their results — then retires the
// registry's current epoch: every shard's device buffers are released
// once the last reader pin drains. Writes arriving after Close fail
// with ErrClosed. Close is idempotent.
func (s *ShardedServer[K]) Close() {
	s.closeOnce.Do(func() {
		s.rbMu.Lock()
		stop := s.rbStop
		s.rbMu.Unlock()
		if stop != nil {
			close(stop)
			s.rbWG.Wait()
		}
		s.pumpMu.Lock()
		s.closed = true
		for _, p := range s.pumps {
			close(p)
		}
		s.pumpMu.Unlock()
		s.pumpWG.Wait()
		s.reg.Close()
	})
}

// Backend is what a Coalescer flushes against: the single-tree Server
// and the ShardedServer both satisfy it.
type Backend[K keys.Key] interface {
	// LookupBatchSortedInto serves one coalesced batch into the caller's
	// slices through the shared-descent path (see
	// Server.LookupBatchSortedInto); the coalescer presorts and
	// deduplicates its batches to land on the sorted fast path.
	LookupBatchSortedInto(queries []K, values []K, found []bool) (core.SearchStats, error)
	// Options exposes the tree configuration (MaxBatch defaults to its
	// BucketSize).
	Options() core.Options
	// Degraded reports whether the backend is serving in degraded mode
	// (breaker open, CPU fallback); the coalescer sheds earlier while it
	// holds.
	Degraded() bool
}

// Degraded reports whether ANY shard's breaker is open: a mixed batch
// may touch any shard, so admission tightens as soon as one is
// degraded.
func (s *ShardedServer[K]) Degraded() bool {
	for _, sub := range s.members() {
		if sub.Degraded() {
			return true
		}
	}
	return false
}

// LookupBatchSortedInto is the coalescer's flush: it pins the registry
// once, then serves each contiguous same-shard run of the batch against
// the pinned trees. The split-key table is range-partitioned, so a
// globally sorted batch decomposes into exactly one contiguous run per
// touched shard — the run walk below finds them with no extra work, and
// each run reaches its shard still sorted and duplicate-free (the
// coalescer's contract). The runs are routed under the pin, so a batch
// formed before a rebalance moved a boundary is still answered from the
// layout current at its flush. SimTime sums the serial runs.
func (s *ShardedServer[K]) LookupBatchSortedInto(queries []K, values []K, found []bool) (core.SearchStats, error) {
	p := s.reg.Pin()
	defer p.Unpin()
	m := p.Meta()
	var agg core.SearchStats
	agg.BucketSize = s.opt.BucketSize
	agg.Sorted = true
	start := 0
	for start < len(queries) {
		i := m.route(queries[start])
		end := start + 1
		for end < len(queries) && m.route(queries[end]) == i {
			end++
		}
		stats, err := m.subs[i].lookupBatchSortedPinned(p.Get(i),
			queries[start:end], values[start:end], found[start:end])
		if err != nil {
			return agg, err
		}
		agg.Queries += stats.Queries
		agg.Buckets += stats.Buckets
		agg.SimTime += stats.SimTime
		agg.NodeProbes += stats.NodeProbes
		agg.ProbesSaved += stats.ProbesSaved
		agg.DedupFolded += stats.DedupFolded
		agg.LeafLines += stats.LeafLines
		for l, c := range stats.LevelProbes {
			agg.LevelProbes[l] += c
		}
		start = end
	}
	if agg.SimTime > 0 {
		agg.ThroughputQPS = float64(agg.Queries) / agg.SimTime.Seconds()
	}
	return agg, nil
}

// Coalesce starts a coalescer over the server: one stream of lookups
// cut into sorted batches, each split into one run per shard at flush
// time (LookupBatchSortedInto), so it serves whatever layout later
// rebalances install.
func (s *ShardedServer[K]) Coalesce(opt Options) *Coalescer[K] {
	return NewCoalescer[K](s, opt)
}
