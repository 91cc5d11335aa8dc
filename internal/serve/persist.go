package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/wal"
)

// Durable persistence (DESIGN §8). A Durable wraps the serving layer's
// write path with per-partition write-ahead logs and epoch-aligned
// snapshots so acked writes survive a crash:
//
//   - Every update batch is appended to the WAL — routed to fixed
//     partitions by key, CRC32C-framed, covered by a group-commit
//     fsync — BEFORE it is applied and acked. An OK the client saw is
//     on disk.
//   - A snapshot pins ONE registry epoch (the same atomic cross-shard
//     cut ScanConsistent uses), serialises every shard tree through
//     cpubtree's image format, and commits a manifest naming the cut
//     and the per-partition WAL floors it covers. Sealed log segments
//     below the floor are deleted.
//   - Recovery bulk-loads the manifest's tree images bottom-up (the
//     node pools are restored directly — no per-batch replay of the
//     data that was already indexed) and then replays only each
//     partition's WAL tail past its floor, in order.
//
// WAL partitions are fixed at first boot — one per initial shard — and
// routed by key hash, NOT by the dynamic shard layout: a rebalance moves
// shard boundaries but never changes which log a key's writes land in,
// so split/merge needs no log migration. Each rebalance appends a
// barrier record to every partition (the manifest barrier of the layout
// change); replay treats barriers as counted no-ops because routing is
// layout-independent.
//
// Replay past the floor is idempotent: floors are conservative (the
// contiguous prefix of appended records whose apply had completed when
// the cut was taken), so a tail record may already be reflected in the
// snapshot — reapplying an insert overwrites with the same value and
// reapplying a delete finds nothing. A key's records all live in one
// partition and replay in order, each through the same update entry as
// the live write, so the last op for a key wins on replay as it did
// when the record was first applied.

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the data directory (created if missing): WAL partitions
	// under wal/, snapshot images under snap-<epoch>/, manifests and
	// the CURRENT pointer at the root.
	Dir string
	// FsyncInterval is the WAL group-commit window; zero fsyncs every
	// append inline.
	FsyncInterval time.Duration
	// SnapshotEvery starts a background snapshotter at this period;
	// zero disables it (snapshots happen only via Snapshot calls and on
	// Close).
	SnapshotEvery time.Duration
}

// RecoveryStats reports what a recovery did — the acceptance harness
// asserts bulk load + tail replay through these, not timing.
type RecoveryStats struct {
	Recovered       bool   // a committed manifest was found and loaded
	SnapshotEpoch   uint64 // manifest epoch the images were cut at
	TableGen        uint64 // split-key table generation at the cut
	Shards          int    // shard trees bulk-loaded
	BulkLoadedPairs int    // pairs restored via image bulk load
	ReplayedRecords int    // WAL tail records applied
	ReplayedOps     int    // ops within those records
	Barriers        int    // rebalance barrier records crossed
	TornTails       int    // partitions whose final record was torn
}

// PersistMetrics is a snapshot of a Durable's counters.
type PersistMetrics struct {
	Appends       int64  // WAL records appended
	AppendedOps   int64  // ops inside those records
	Syncs         int64  // fsync calls across partitions
	WalBytes      int64  // WAL bytes appended
	Partitions    int    // WAL partition count
	Segments      int    // live WAL segment files
	Truncated     int64  // WAL segments reclaimed by snapshots
	Snapshots     int64  // snapshots committed
	SnapshotSkips int64  // snapshot passes skipped (epoch unchanged)
	LastSnapshot  uint64 // last committed snapshot epoch
	Barriers      int64  // rebalance barrier records written
	SnapFailures  int64  // snapshot attempts that failed
}

// floorTracker tracks the contiguous prefix of WAL records whose apply
// has completed: seqs are marked as their batches finish (possibly out
// of order — per-shard writers overlap) and the floor advances while
// the next seq is present. The floor is what a snapshot may safely
// declare covered.
type floorTracker struct {
	mu    sync.Mutex
	floor uint64
	done  map[uint64]struct{}
}

func newFloorTracker(floor uint64) *floorTracker {
	return &floorTracker{floor: floor, done: make(map[uint64]struct{})}
}

func (t *floorTracker) mark(seq uint64) {
	t.mu.Lock()
	if seq > t.floor {
		t.done[seq] = struct{}{}
		for {
			if _, ok := t.done[t.floor+1]; !ok {
				break
			}
			delete(t.done, t.floor+1)
			t.floor++
		}
	}
	t.mu.Unlock()
}

func (t *floorTracker) get() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.floor
}

// Durable fronts a Server — of one shard or many — with the WAL +
// snapshot discipline. Reads go straight to the wrapped server
// (durability does not tax the read path); writes MUST go through the
// Durable or they will not survive a crash.
type Durable[K keys.Key] struct {
	dir     string
	walDir  string
	keyBits byte

	srv *Server[K]

	logs   []*wal.Log
	floors []*floorTracker

	snapMu        sync.Mutex // one snapshot at a time
	appendedOps   atomic.Int64
	snapshots     atomic.Int64
	snapSkips     atomic.Int64
	snapFailures  atomic.Int64
	barriers      atomic.Int64
	lastSnapEpoch atomic.Uint64

	recovery RecoveryStats

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// OpenDurable opens (or creates) the durable serving stack in
// dopt.Dir. When the directory holds a committed snapshot, the shard
// trees are bulk-loaded from its images, the serving layout (shard
// count, bounds) is restored from the manifest — `shards` is ignored —
// and each WAL partition's tail past the manifest floor is replayed.
// Otherwise seed() provides the initial sorted pairs, the server is
// built fresh with `shards` shards (<= 0 selects GOMAXPROCS, as in
// BuildSharded) and one WAL partition per shard — a count the manifest
// then fixes for the life of the directory — and an initial snapshot is
// committed so every later boot recovers. An implicit build may keep the
// seed pairs as its leaf segment; do not modify them afterwards.
//
// The wrapped server is reachable via Server for reads; all writes
// must flow through the Durable.
func OpenDurable[K keys.Key](dopt DurableOptions, opt core.Options, shards int, seed func() ([]keys.Pair[K], error)) (*Durable[K], error) {
	if dopt.Dir == "" {
		return nil, fmt.Errorf("serve: durable: empty data dir")
	}
	if err := os.MkdirAll(dopt.Dir, 0o755); err != nil {
		return nil, err
	}
	d := &Durable[K]{
		dir:     dopt.Dir,
		walDir:  filepath.Join(dopt.Dir, "wal"),
		keyBits: byte(keys.Size[K]() * 8),
	}

	m, found, err := wal.ReadCurrentManifest(dopt.Dir)
	if err != nil {
		return nil, err
	}
	if found {
		if err := d.recover(m, opt, dopt); err != nil {
			return nil, err
		}
	} else {
		if err := d.bootstrap(opt, dopt, shards, seed); err != nil {
			return nil, err
		}
	}

	d.srv.SetLayoutHook(d.onLayoutChange)
	if dopt.SnapshotEvery > 0 {
		d.stop = make(chan struct{})
		d.wg.Add(1)
		go d.snapshotLoop(dopt.SnapshotEvery)
	}
	return d, nil
}

// recover rebuilds the serving stack from a committed manifest: bulk
// tree loads, layout restoration, WAL-tail replay.
func (d *Durable[K]) recover(m *wal.Manifest, opt core.Options, dopt DurableOptions) error {
	if m.KeyBits != d.keyBits {
		return fmt.Errorf("serve: durable: manifest key width %d bits, serving %d", m.KeyBits, d.keyBits)
	}
	var trees []*core.Tree[K]
	fail := func(err error) error {
		for _, t := range trees {
			t.Close()
		}
		return err
	}
	pairs := 0
	for i, rel := range m.Trees {
		f, err := os.Open(filepath.Join(d.dir, rel))
		if err != nil {
			return fail(fmt.Errorf("serve: durable: open shard image %d: %w", i, err))
		}
		t, err := core.Load[K](f, opt)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("serve: durable: bulk-load shard %d: %w", i, err))
		}
		if opt.Device == nil {
			opt.Device = t.Device() // all shards share one simulated card
		}
		trees = append(trees, t)
		pairs += t.NumPairs()
	}
	if m.Pairs != pairs {
		return fail(fmt.Errorf("serve: durable: manifest says %d pairs, images hold %d", m.Pairs, pairs))
	}
	bounds := make([]K, len(m.Bounds))
	for i, b := range m.Bounds {
		bounds[i] = K(b)
	}
	d.srv = newShardedFromTrees(trees, bounds, m.TableGen)
	d.recovery = RecoveryStats{
		Recovered:       true,
		SnapshotEpoch:   m.Epoch,
		TableGen:        m.TableGen,
		Shards:          len(trees),
		BulkLoadedPairs: pairs,
	}
	d.lastSnapEpoch.Store(0) // force the next snapshot even at epoch parity

	// Replay each partition's tail past the manifest floor, then open
	// the logs for appending (Open truncates any torn final record the
	// scan reported — its append was never acked).
	d.floors = make([]*floorTracker, m.Partitions)
	for i := 0; i < m.Partitions; i++ {
		res, err := wal.Scan(d.walDir, i, d.keyBits, m.Floors[i])
		if err != nil {
			return fmt.Errorf("serve: durable: scan wal partition %d: %w", i, err)
		}
		if res.TornTail {
			d.recovery.TornTails++
		}
		for _, rec := range res.Records {
			if err := d.replayRecord(rec); err != nil {
				return fmt.Errorf("serve: durable: replay partition %d seq %d: %w", i, rec.Seq, err)
			}
		}
		d.floors[i] = newFloorTracker(res.NextSeq - 1)
	}
	return d.openLogs(m.Partitions, dopt.FsyncInterval)
}

// replayRecord applies one recovered WAL record through the server's
// normal (non-logging) write path.
func (d *Durable[K]) replayRecord(rec wal.Record) error {
	if len(rec.Payload) == 0 {
		return fmt.Errorf("%w: empty payload", wal.ErrCorrupt)
	}
	switch rec.Payload[0] {
	case wal.RecOps:
		ops, method, err := wal.DecodeOps[K](rec.Payload)
		if err != nil {
			return err
		}
		if _, err := d.srv.Update(ops, core.UpdateMethod(method)); err != nil {
			return err
		}
		d.recovery.ReplayedRecords++
		d.recovery.ReplayedOps += len(ops)
	case wal.RecBarrier:
		if _, err := wal.DecodeBarrier(rec.Payload); err != nil {
			return err
		}
		d.recovery.Barriers++
		d.recovery.ReplayedRecords++
	default:
		return fmt.Errorf("%w: unknown record type %d", wal.ErrCorrupt, rec.Payload[0])
	}
	return nil
}

// bootstrap builds the serving stack fresh from seed data and commits
// the initial snapshot, so every subsequent boot takes the recovery
// path.
func (d *Durable[K]) bootstrap(opt core.Options, dopt DurableOptions, shards int, seed func() ([]keys.Pair[K], error)) error {
	pairs, err := seed()
	if err != nil {
		return err
	}
	if d.srv, err = BuildSharded(pairs, opt, shards); err != nil {
		return err
	}
	d.floors = make([]*floorTracker, d.srv.Shards())
	for i := range d.floors {
		d.floors[i] = newFloorTracker(0)
	}
	if err := d.openLogs(len(d.floors), dopt.FsyncInterval); err != nil {
		return err
	}
	if _, err := d.Snapshot(); err != nil {
		return fmt.Errorf("serve: durable: initial snapshot: %w", err)
	}
	return nil
}

func (d *Durable[K]) openLogs(partitions int, fsyncInterval time.Duration) error {
	d.logs = make([]*wal.Log, partitions)
	for i := range d.logs {
		l, err := wal.Open(d.walDir, i, d.keyBits, wal.Options{FsyncInterval: fsyncInterval})
		if err != nil {
			for _, prev := range d.logs[:i] {
				prev.Close()
			}
			return fmt.Errorf("serve: durable: open wal partition %d: %w", i, err)
		}
		d.logs[i] = l
	}
	return nil
}

// Server returns the wrapped server, whatever its shard count. Reads
// route through it directly — Server().Coalesce takes the sorted
// shared-descent flush path exactly as on a non-durable deployment;
// durability only intercepts writes.
func (d *Durable[K]) Server() *Server[K] { return d.srv }

// Recovery returns what recovery did at open (zero value on a fresh
// boot).
func (d *Durable[K]) Recovery() RecoveryStats { return d.recovery }

// partition routes a key to its WAL partition: a fixed key-hash
// assignment, independent of the dynamic shard layout.
func (d *Durable[K]) partition(k K) int {
	return int(uint64(k) % uint64(len(d.logs)))
}

// Update logs ops to the WAL (routed by key, durable before return)
// and then applies them through the wrapped server. The ack discipline
// is write-ahead: a batch is applied — and thus ackable — only after
// its log append's group commit completed. A batch whose append failed
// is not applied at all.
func (d *Durable[K]) Update(ops []cpubtree.Op[K], method core.UpdateMethod) (core.UpdateStats, error) {
	return d.UpdateCtx(context.Background(), ops, method)
}

// UpdateCtx is Update with the caller deadline applied to the apply
// phase (writer-slot waits). The WAL append itself is not abandoned on
// ctx expiry — it is bounded by the group-commit window, and tearing a
// record out of a shared flush is not possible.
//
// Only the regular variant takes updates. Any other variant is refused
// before the append: a logged batch that cannot apply would fail again
// on every recovery replay.
func (d *Durable[K]) UpdateCtx(ctx context.Context, ops []cpubtree.Op[K], method core.UpdateMethod) (core.UpdateStats, error) {
	if len(ops) == 0 {
		return d.srv.UpdateCtx(ctx, ops, method)
	}
	if d.srv.opt.Variant != core.Regular {
		return core.UpdateStats{}, fmt.Errorf("serve: durable: updates apply to the regular variant")
	}
	type pend struct {
		part int
		seq  uint64
	}
	var pends []pend
	if len(ops) == 1 || len(d.logs) == 1 {
		// Fast path (the PUT/DEL serving case): one partition, one
		// record.
		part := 0
		if len(d.logs) > 1 {
			part = d.partition(ops[0].Key)
		}
		seq, err := d.logs[part].Append(wal.AppendOps(nil, ops, byte(method)))
		if err != nil {
			return core.UpdateStats{}, fmt.Errorf("serve: durable: wal append: %w", err)
		}
		pends = []pend{{part, seq}}
	} else {
		groups := make([][]cpubtree.Op[K], len(d.logs))
		for _, op := range ops {
			i := d.partition(op.Key)
			groups[i] = append(groups[i], op)
		}
		for i, g := range groups {
			if len(g) == 0 {
				continue
			}
			seq, err := d.logs[i].Append(wal.AppendOps(nil, g, byte(method)))
			if err != nil {
				// Partitions already appended will be replayed after a
				// crash even though this batch is not acked — the "may
				// appear" half of the contract, same as a crash between
				// append and ack. Mark them applied-equivalent so the
				// floor never stalls on a batch that was never applied.
				for _, p := range pends {
					d.floors[p.part].mark(p.seq)
				}
				return core.UpdateStats{}, fmt.Errorf("serve: durable: wal append: %w", err)
			}
			pends = append(pends, pend{i, seq})
		}
	}
	d.appendedOps.Add(int64(len(ops)))
	stats, err := d.srv.UpdateCtx(ctx, ops, method)
	// Mark the appended records complete whether the apply succeeded or
	// was abandoned: a failed apply means the batch was never acked, so
	// a snapshot floor past it drops it legitimately — while a stalled
	// floor would pin every later segment forever.
	for _, p := range pends {
		d.floors[p.part].mark(p.seq)
	}
	return stats, err
}

// onLayoutChange is the rebalance hook: it appends a barrier record to
// every WAL partition, marking the layout transition in the log stream.
func (d *Durable[K]) onLayoutChange(gen uint64, shards int) {
	payload := wal.AppendBarrier(nil, wal.Barrier{Gen: gen, Shards: uint32(shards)})
	for i, l := range d.logs {
		seq, err := l.Append(payload)
		if err != nil {
			continue // sticky log error; the next update surfaces it
		}
		d.floors[i].mark(seq) // barriers are applied by definition
		d.barriers.Add(1)
	}
}

// Snapshot writes one epoch-aligned snapshot: every shard tree under a
// single pinned registry epoch (an atomic cross-shard cut), a committed
// manifest, and WAL truncation below the covered floors. It returns the
// committed epoch. A pass whose epoch equals the last committed one is
// skipped (nothing new to cover).
func (d *Durable[K]) Snapshot() (uint64, error) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()

	// Floors first, pin second: every record at or below the floor had
	// fully applied — and therefore published — before the pin, so the
	// pinned images contain it. Records between floor and pin replay
	// idempotently.
	floors := make([]uint64, len(d.logs))
	for i, ft := range d.floors {
		floors[i] = ft.get()
	}

	p := d.srv.reg.Pin()
	defer p.Unpin()
	m := p.Meta()
	var bounds []uint64
	for _, b := range m.bounds {
		bounds = append(bounds, uint64(b))
	}
	ep := p.Epoch()
	if ep == d.lastSnapEpoch.Load() {
		d.snapSkips.Add(1)
		return ep, nil
	}

	snapDir := filepath.Join(d.dir, wal.SnapDir(ep))
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		d.snapFailures.Add(1)
		return 0, err
	}
	man := &wal.Manifest{
		Epoch:      ep,
		TableGen:   m.gen,
		KeyBits:    d.keyBits,
		Bounds:     bounds,
		Partitions: len(d.logs),
		Floors:     floors,
	}
	for i := 0; i < p.Len(); i++ {
		t := p.Get(i)
		rel := filepath.Join(wal.SnapDir(ep), fmt.Sprintf("shard-%03d.tree", i))
		if err := writeTreeImage(filepath.Join(d.dir, rel), t); err != nil {
			d.snapFailures.Add(1)
			return 0, fmt.Errorf("serve: durable: snapshot shard %d: %w", i, err)
		}
		man.Trees = append(man.Trees, rel)
		man.Pairs += t.NumPairs()
	}
	// The images' directory entries must survive a power loss before the
	// manifest names them and truncation drops the log they replace.
	// WriteManifest's sync of d.dir covers snapDir's own entry.
	if err := syncDir(snapDir); err != nil {
		d.snapFailures.Add(1)
		return 0, fmt.Errorf("serve: durable: sync %s: %w", snapDir, err)
	}
	if err := wal.WriteManifest(d.dir, man); err != nil {
		d.snapFailures.Add(1)
		return 0, fmt.Errorf("serve: durable: commit manifest: %w", err)
	}
	d.lastSnapEpoch.Store(ep)
	d.snapshots.Add(1)

	// The snapshot is committed; reclaim what it superseded. Rotate
	// seals each active segment so truncation operates on whole files.
	for i, l := range d.logs {
		if err := l.Rotate(); err != nil {
			continue
		}
		l.TruncateBelow(floors[i] + 1)
	}
	wal.SweepSnapshots(d.dir, ep)
	return ep, nil
}

// syncDir fsyncs a directory; tests replace it to record the order of
// directory syncs.
var syncDir = wal.SyncDir

// writeTreeImage serialises one tree to path and fsyncs it.
func writeTreeImage[K keys.Key](path string, t *core.Tree[K]) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshotLoop is the background snapshotter.
func (d *Durable[K]) snapshotLoop(every time.Duration) {
	defer d.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.Snapshot() // failures are counted; the next tick retries
		}
	}
}

// Metrics returns the persistence counters.
func (d *Durable[K]) Metrics() PersistMetrics {
	m := PersistMetrics{
		AppendedOps:   d.appendedOps.Load(),
		Partitions:    len(d.logs),
		Snapshots:     d.snapshots.Load(),
		SnapshotSkips: d.snapSkips.Load(),
		LastSnapshot:  d.lastSnapEpoch.Load(),
		Barriers:      d.barriers.Load(),
		SnapFailures:  d.snapFailures.Load(),
	}
	for _, l := range d.logs {
		st := l.Stats()
		m.Appends += st.Appends
		m.Syncs += st.Syncs
		m.WalBytes += st.Bytes
		m.Segments += st.Segments
		m.Truncated += st.Truncated
	}
	return m
}

// Close stops the background snapshotter, commits a final snapshot (a
// graceful shutdown restarts with zero replay), and closes the logs.
// The wrapped server is NOT closed — the serving layer owns it.
func (d *Durable[K]) Close() error {
	d.closeOnce.Do(func() {
		if d.stop != nil {
			close(d.stop)
			d.wg.Wait()
		}
		if _, err := d.Snapshot(); err != nil {
			d.closeErr = err
		}
		for _, l := range d.logs {
			if err := l.Close(); err != nil && d.closeErr == nil {
				d.closeErr = err
			}
		}
	})
	return d.closeErr
}
