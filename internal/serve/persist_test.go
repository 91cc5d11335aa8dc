package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/wal"
	"hbtree/internal/workload"
)

// crash abandons a Durable without the graceful-shutdown snapshot:
// the background snapshotter stops and the logs close (flushing what a
// real crash's page cache would usually have persisted anyway — every
// acked append was already fsynced), but NO manifest is written, so the
// next open must recover from the last committed snapshot plus the WAL
// tail. The wrapped server keeps running until closeBackend.
func (d *Durable[K]) crash() {
	if d.stop != nil {
		close(d.stop)
		d.wg.Wait()
	}
	for _, l := range d.logs {
		l.Close()
	}
}

// closeBackend closes the server the Durable wraps.
func (d *Durable[K]) closeBackend() { d.srv.Close() }

// scanAll reads every stored pair through the wrapped server.
func (d *Durable[K]) scanAll(limit int) []keys.Pair[K] {
	return d.srv.ScanConsistent(0, limit)
}

const durN = 2048

func durSeed() ([]keys.Pair[uint64], error) {
	return workload.Dataset[uint64](workload.Uniform, durN, 42), nil
}

func openDur(t *testing.T, dir string, shards int) *Durable[uint64] {
	t.Helper()
	d, err := OpenDurable(DurableOptions{Dir: dir}, core.Options{Variant: core.Regular, BucketSize: 64}, shards, durSeed)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

// forShards runs f as a subtest per shard count: the layout tests start
// from one shard as well as from several.
func forShards(t *testing.T, counts []int, f func(t *testing.T, shards int)) {
	for _, shards := range counts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { f(t, shards) })
	}
}

// applyOracle drives n update batches through d, maintaining the oracle
// map alongside; roughly one op in four is a delete.
func applyOracle(t *testing.T, d *Durable[uint64], oracle map[uint64]uint64, n int, seed uint64) {
	t.Helper()
	r := workload.NewRNG(seed)
	for i := 0; i < n; i++ {
		var ops []cpubtree.Op[uint64]
		for j := 0; j < 1+r.Intn(8); j++ {
			k := uint64(r.Intn(4 * durN))
			if r.Intn(4) == 0 {
				ops = append(ops, cpubtree.Op[uint64]{Key: k, Delete: true})
				delete(oracle, k)
			} else {
				v := r.Uint64()
				ops = append(ops, cpubtree.Op[uint64]{Key: k, Value: v})
				oracle[k] = v
			}
		}
		if _, err := d.Update(ops, core.Synchronized); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
	}
}

// seedOracle returns the oracle for the fresh-boot seed data.
func seedOracle(t *testing.T) map[uint64]uint64 {
	t.Helper()
	pairs, _ := durSeed()
	oracle := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	return oracle
}

// verifyOracle asserts the recovered server equals the oracle
// key-for-key.
func verifyOracle(t *testing.T, d *Durable[uint64], oracle map[uint64]uint64) {
	t.Helper()
	got := d.scanAll(len(oracle) + durN)
	if len(got) != len(oracle) {
		t.Fatalf("recovered %d pairs, oracle holds %d", len(got), len(oracle))
	}
	for _, p := range got {
		if v, ok := oracle[p.Key]; !ok || v != p.Value {
			t.Fatalf("recovered pair (%d,%d); oracle says (%d,%v)", p.Key, p.Value, v, ok)
		}
	}
}

func TestDurableFreshBootCommitsInitialSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir, 1)
	defer d.closeBackend()
	defer d.Close()
	if d.Recovery().Recovered {
		t.Fatal("fresh boot claims recovery")
	}
	m, ok, err := wal.ReadCurrentManifest(dir)
	if err != nil || !ok {
		t.Fatalf("no committed manifest after fresh boot: ok %v err %v", ok, err)
	}
	if m.Pairs != durN || m.Partitions != 1 {
		t.Fatalf("initial manifest: %d pairs, %d partitions", m.Pairs, m.Partitions)
	}
	pm := d.Metrics()
	if pm.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", pm.Snapshots)
	}
}

// TestDurableServesCoalescedReads: the wrapped server reports the
// options its trees were built with, defaults resolved, on a fresh boot
// and after recovery — a Coalescer sizes its batches from
// Options().BucketSize, and a zero there (the caller's unfilled value;
// openDur sets one, so this test opens its own) spins its enqueue loop
// forever.
func TestDurableServesCoalescedReads(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		dir := t.TempDir()
		pairs, _ := durSeed()
		for _, boot := range []string{"fresh", "recovered"} {
			d, err := OpenDurable(DurableOptions{Dir: dir}, core.Options{Variant: core.Regular}, shards, durSeed)
			if err != nil {
				t.Fatalf("%s: OpenDurable: %v", boot, err)
			}
			if bs := d.Server().Options().BucketSize; bs <= 0 {
				t.Fatalf("%s: wrapped server reports BucketSize %d", boot, bs)
			}
			co := d.Server().Coalesce(Options{})
			for _, p := range []keys.Pair[uint64]{pairs[0], pairs[durN/2], pairs[durN-1]} {
				if v, ok, err := co.Lookup(p.Key); err != nil || !ok || v != p.Value {
					t.Fatalf("%s: coalesced Lookup(%d) = (%d, %v, %v)", boot, p.Key, v, ok, err)
				}
			}
			co.Close()
			if err := d.Close(); err != nil {
				t.Fatalf("%s: Close: %v", boot, err)
			}
			d.closeBackend()
		}
	})
}

func TestDurableGracefulRestartNeedsNoReplay(t *testing.T) {
	dir := t.TempDir()
	oracle := seedOracle(t)
	d := openDur(t, dir, 1)
	applyOracle(t, d, oracle, 100, 7)
	if err := d.Close(); err != nil { // commits a final snapshot
		t.Fatalf("Close: %v", err)
	}
	d.closeBackend()

	d = openDur(t, dir, 1)
	defer d.closeBackend()
	defer d.Close()
	rs := d.Recovery()
	if !rs.Recovered {
		t.Fatal("reopen did not recover")
	}
	if rs.ReplayedRecords != 0 {
		t.Fatalf("graceful restart replayed %d records, want 0", rs.ReplayedRecords)
	}
	if rs.BulkLoadedPairs != len(oracle) {
		t.Fatalf("bulk-loaded %d pairs, want %d", rs.BulkLoadedPairs, len(oracle))
	}
	verifyOracle(t, d, oracle)
}

func TestDurableCrashReplaysTail(t *testing.T) {
	dir := t.TempDir()
	oracle := seedOracle(t)
	d := openDur(t, dir, 1)
	applyOracle(t, d, oracle, 200, 11)

	// One record that writes a few stored and absent keys many times,
	// logged with the parallel method: live and on replay, each key ends
	// at its last write.
	pairs, _ := durSeed()
	hot := []uint64{pairs[3].Key, pairs[700].Key, pairs[1900].Key, 7, 8, 9}
	r := workload.NewRNG(19)
	ops := make([]cpubtree.Op[uint64], 300)
	for i := range ops {
		ops[i] = cpubtree.Op[uint64]{Key: hot[r.Intn(len(hot))], Value: r.Uint64(), Delete: r.Intn(4) == 0}
		if ops[i].Delete {
			delete(oracle, ops[i].Key)
		} else {
			oracle[ops[i].Key] = ops[i].Value
		}
	}
	if _, err := d.Update(ops, core.AsyncParallel); err != nil {
		t.Fatal(err)
	}
	verifyOracle(t, d, oracle)
	d.crash() // no final snapshot: the tail lives only in the WAL
	d.closeBackend()

	d = openDur(t, dir, 1)
	defer d.closeBackend()
	defer d.Close()
	rs := d.Recovery()
	if !rs.Recovered || rs.ReplayedRecords != 201 || rs.ReplayedOps == 0 {
		t.Fatalf("recovery stats: %+v (want 201 replayed records)", rs)
	}
	if rs.BulkLoadedPairs != durN {
		t.Fatalf("bulk-loaded %d pairs, want the %d seeded", rs.BulkLoadedPairs, durN)
	}
	verifyOracle(t, d, oracle)

	// Updates keep flowing after recovery and survive the next crash.
	applyOracle(t, d, oracle, 50, 13)
	d.crash()
	d.closeBackend()
	d = openDur(t, dir, 1)
	defer d.closeBackend()
	defer d.Close()
	verifyOracle(t, d, oracle)
}

// TestDurableImplicitRefusesWritesAndRestarts: an implicit Durable
// refuses an update before logging it, so a crash after the refusal
// leaves a directory that recovers with nothing to replay and every
// seeded pair back.
func TestDurableImplicitRefusesWritesAndRestarts(t *testing.T) {
	dir := t.TempDir()
	open := func() *Durable[uint64] {
		t.Helper()
		d, err := OpenDurable(DurableOptions{Dir: dir}, core.Options{Variant: core.Implicit, BucketSize: 64}, 1, durSeed)
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		return d
	}
	d := open()
	pairs, _ := durSeed()
	if _, err := d.Update([]cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 1}}, core.Synchronized); err == nil {
		t.Fatal("implicit Durable accepted an update")
	}
	d.crash()
	d.closeBackend()

	d = open()
	defer d.closeBackend()
	defer d.Close()
	if rs := d.Recovery(); !rs.Recovered || rs.ReplayedRecords != 0 || rs.BulkLoadedPairs != durN {
		t.Fatalf("recovery stats: %+v (want recovered, 0 replayed, %d bulk-loaded)", rs, durN)
	}
	verifyOracle(t, d, seedOracle(t))
}

func TestDurableShardedCrashRestoresLayoutAndData(t *testing.T) {
	forShards(t, []int{1, 4}, func(t *testing.T, shards int) {
		dir := t.TempDir()
		oracle := seedOracle(t)
		d := openDur(t, dir, shards)
		if got := d.Server().Shards(); got != shards {
			t.Fatalf("durable built %d shards, want %d", got, shards)
		}
		applyOracle(t, d, oracle, 150, 17)
		d.crash()
		d.closeBackend()

		d = openDur(t, dir, shards)
		defer d.closeBackend()
		defer d.Close()
		rs := d.Recovery()
		if !rs.Recovered || rs.Shards != shards {
			t.Fatalf("recovery stats: %+v", rs)
		}
		if rs.ReplayedRecords == 0 {
			t.Fatal("crash recovery replayed nothing")
		}
		if got := d.Server().Shards(); got != shards {
			t.Fatalf("recovered %d shards, want %d", got, shards)
		}
		verifyOracle(t, d, oracle)
	})
}

func TestDurableSnapshotCoversRebalancedLayout(t *testing.T) {
	forShards(t, []int{1, 3}, func(t *testing.T, shards int) {
		dir := t.TempDir()
		oracle := seedOracle(t)
		d := openDur(t, dir, shards)
		applyOracle(t, d, oracle, 60, 19)
		if err := d.Server().SplitShard(shards / 2); err != nil {
			t.Fatalf("SplitShard: %v", err)
		}
		if d.Metrics().Barriers == 0 {
			t.Fatal("split wrote no barrier records")
		}
		applyOracle(t, d, oracle, 60, 23)
		if _, err := d.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		d.crash()
		d.closeBackend()

		d = openDur(t, dir, shards)
		defer d.closeBackend()
		defer d.Close()
		rs := d.Recovery()
		if rs.Shards != shards+1 {
			t.Fatalf("snapshot after split restored %d shards, want %d", rs.Shards, shards+1)
		}
		if rs.TableGen != 2 {
			t.Fatalf("restored table generation %d, want 2", rs.TableGen)
		}
		if rs.ReplayedRecords != 0 {
			t.Fatalf("post-snapshot crash replayed %d records", rs.ReplayedRecords)
		}
		if got := len(d.Server().Bounds()); got != shards {
			t.Fatalf("recovered %d bounds, want %d", got, shards)
		}
		verifyOracle(t, d, oracle)
	})
}

func TestDurableBarrierCrossesRecovery(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		dir := t.TempDir()
		oracle := seedOracle(t)
		d := openDur(t, dir, shards)
		applyOracle(t, d, oracle, 40, 29)
		if err := d.Server().SplitShard(0); err != nil {
			t.Fatalf("SplitShard: %v", err)
		}
		applyOracle(t, d, oracle, 40, 31)
		d.crash() // manifest still has the pre-split layout
		d.closeBackend()

		d = openDur(t, dir, shards)
		defer d.closeBackend()
		defer d.Close()
		rs := d.Recovery()
		// The barrier was logged to every partition (one per initial
		// shard); replay crosses each.
		if rs.Barriers != shards {
			t.Fatalf("recovery crossed %d barriers, want %d (one per partition)", rs.Barriers, shards)
		}
		// Layout reverts to the manifest's (the split itself was not yet
		// snapshotted — it is a serving-plane optimisation, not data).
		if rs.Shards != shards {
			t.Fatalf("recovered %d shards, want the manifest's %d", rs.Shards, shards)
		}
		verifyOracle(t, d, oracle)
	})
}

// TestDurableRecoversParentWrittenDirectory: a data directory written
// before Durable always fronted a Server — one tree image, no
// bounds, TableGen 0 (the single-tree arm never set it) — recovers as a
// one-shard layout at the manifest's generation, keeps every acked
// write, and from there behaves like any other: it can be split, and the
// split layout round-trips through a further close and reopen.
func TestDurableRecoversParentWrittenDirectory(t *testing.T) {
	dir := t.TempDir()
	oracle := seedOracle(t)
	d := openDur(t, dir, 1)
	applyOracle(t, d, oracle, 100, 47)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d.closeBackend()

	m, ok, err := wal.ReadCurrentManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest: ok %v err %v", ok, err)
	}
	if len(m.Trees) != 1 || len(m.Bounds) != 0 || m.TableGen != 1 {
		t.Fatalf("one-shard manifest: %d trees, %d bounds, gen %d", len(m.Trees), len(m.Bounds), m.TableGen)
	}
	m.TableGen = 0
	if err := wal.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}

	d = openDur(t, dir, 4) // the manifest's layout wins over the argument
	rs := d.Recovery()
	if !rs.Recovered || rs.Shards != 1 || rs.TableGen != 0 || rs.ReplayedRecords != 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	// The live table carries the manifest's generation, not a fresh 1.
	if live := d.Server().RebalanceStats(); live.Shards != 1 || live.TableGen != 0 {
		t.Fatalf("live layout after recovery: %+v", live)
	}
	srv := d.Server()
	if srv != d.srv || srv.Shards() != 1 {
		t.Fatalf("one-shard Durable's Server() = %p with %d shards, want the engine %p", srv, srv.Shards(), d.srv)
	}
	verifyOracle(t, d, oracle)

	applyOracle(t, d, oracle, 50, 53)
	if err := d.Server().SplitShard(0); err != nil {
		t.Fatalf("SplitShard: %v", err)
	}
	if d.Server() != srv || srv.Shards() != 2 {
		t.Fatalf("after a split Server() = %p with %d shards, want the same engine with 2", d.Server(), srv.Shards())
	}
	applyOracle(t, d, oracle, 50, 59)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d.closeBackend()

	d = openDur(t, dir, 1)
	defer d.closeBackend()
	defer d.Close()
	if rs := d.Recovery(); rs.Shards != 2 || rs.TableGen != 1 || rs.ReplayedRecords != 0 {
		t.Fatalf("recovery stats after split: %+v", rs)
	}
	verifyOracle(t, d, oracle)
}

func TestDurableWALTruncationAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	oracle := seedOracle(t)
	d := openDur(t, dir, 1)
	defer d.closeBackend()
	defer d.Close()
	applyOracle(t, d, oracle, 300, 37)
	if _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	applyOracle(t, d, oracle, 10, 41)
	if _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	pm := d.Metrics()
	if pm.Truncated == 0 {
		t.Fatalf("snapshots reclaimed no WAL segments: %+v", pm)
	}
	if pm.Segments > 2 {
		t.Fatalf("%d live segments after back-to-back snapshots", pm.Segments)
	}
}

// TestSnapshotSyncsImageDirBeforeCommit: a snapshot fsyncs its
// snap-<epoch>/ directory once, after the last shard image is in it and
// before the manifest commit makes the snapshot current, so the images'
// directory entries are durable before the WAL they replace is
// truncated.
func TestSnapshotSyncsImageDirBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	const shards = 2
	d := openDur(t, dir, shards)
	defer d.closeBackend()
	defer d.Close()
	applyOracle(t, d, seedOracle(t), 5, 3)
	type dirSync struct {
		path    string
		entries int
		current uint64
	}
	var syncs []dirSync
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(p string) error {
		ents, _ := os.ReadDir(p)
		s := dirSync{path: p, entries: len(ents)}
		if m, ok, _ := wal.ReadCurrentManifest(dir); ok {
			s.current = m.Epoch
		}
		syncs = append(syncs, s)
		return orig(p)
	}
	ep, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, wal.SnapDir(ep))
	var got []dirSync
	for _, s := range syncs {
		if s.path == snapDir {
			got = append(got, s)
		}
	}
	if len(got) != 1 {
		t.Fatalf("snapshot %d synced %s %d times, want once (syncs %+v)", ep, snapDir, len(got), syncs)
	}
	if got[0].entries != shards || got[0].current >= ep {
		t.Fatalf("%s synced holding %d images with epoch %d current; want all %d images, before epoch %d commits",
			snapDir, got[0].entries, got[0].current, shards, ep)
	}
	if m, _, err := wal.ReadCurrentManifest(dir); err != nil || m.Epoch != ep {
		t.Fatalf("current manifest after the snapshot: %+v, %v", m, err)
	}
}

// TestDurableCrashMatrix walks the crash points of the commit protocol
// (ISSUE satellite): for each, the acked state survives and un-acked
// artifacts are ignored or surface only as the documented "may appear"
// case.
func TestDurableCrashMatrix(t *testing.T) {
	type matrixCase struct {
		name string
		// sabotage mutates the on-disk state between crash and reopen,
		// returning an adjustment to the oracle and any extra assertion.
		sabotage func(t *testing.T, dir string, oracle map[uint64]uint64)
		check    func(t *testing.T, rs RecoveryStats)
	}
	cases := []matrixCase{
		{
			// Crash BEFORE the WAL append: the op is nowhere — not
			// logged, not applied, never acked. Recovery must not invent
			// it. (No sabotage: the victim op is simply never submitted.)
			name:     "before-wal-append",
			sabotage: func(t *testing.T, dir string, oracle map[uint64]uint64) {},
			check: func(t *testing.T, rs RecoveryStats) {
				if !rs.Recovered {
					t.Fatal("no recovery")
				}
			},
		},
		{
			// Crash AFTER the append but before apply/ack: the record is
			// durable, so recovery replays it — the documented "un-acked
			// write may appear" half of the contract.
			name: "after-append-before-ack",
			sabotage: func(t *testing.T, dir string, oracle map[uint64]uint64) {
				l, err := wal.Open(filepath.Join(dir, "wal"), 0, 64, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ops := []cpubtree.Op[uint64]{{Key: 99991, Value: 777}}
				if _, err := l.Append(wal.AppendOps(nil, ops, byte(core.Synchronized))); err != nil {
					t.Fatal(err)
				}
				l.Close()
				oracle[99991] = 777 // it WILL appear after replay
			},
			check: func(t *testing.T, rs RecoveryStats) {
				if rs.ReplayedRecords == 0 {
					t.Fatal("appended record not replayed")
				}
			},
		},
		{
			// Crash MID-SNAPSHOT: images and manifest of a newer epoch
			// exist but CURRENT was never updated (or the manifest is
			// half-written garbage). Recovery must ignore the wreck and
			// load the previous committed snapshot.
			name: "mid-snapshot",
			sabotage: func(t *testing.T, dir string, oracle map[uint64]uint64) {
				os.MkdirAll(filepath.Join(dir, wal.SnapDir(1<<40)), 0o755)
				os.WriteFile(filepath.Join(dir, wal.SnapDir(1<<40), "shard-000.tree"), []byte("half a tree"), 0o644)
				os.WriteFile(filepath.Join(dir, wal.ManifestPath(1<<40)), []byte("HBMF1 torn"), 0o644)
			},
			check: func(t *testing.T, rs RecoveryStats) {
				if rs.SnapshotEpoch >= 1<<40 {
					t.Fatalf("recovered from the half-written snapshot (epoch %d)", rs.SnapshotEpoch)
				}
			},
		},
		{
			// Crash MID-LOG-TRUNCATION: a sealed segment the snapshot
			// already covers survives on disk. Its records are at or
			// below the floor, so replay must skip them (idempotence) —
			// the live data must not double-apply or reorder.
			name: "mid-log-truncation",
			sabotage: func(t *testing.T, dir string, oracle map[uint64]uint64) {
				// Fabricate a below-floor segment: records 1..N of
				// partition 0 were covered by the initial snapshot in
				// this scenario's timeline; re-creating a sealed segment
				// holding an OLD conflicting write for a key the oracle
				// knows must be ignored by the floor.
				pd := filepath.Join(dir, "wal", "p000")
				entries, err := os.ReadDir(pd)
				if err != nil || len(entries) == 0 {
					t.Fatalf("no wal segments: %v", err)
				}
				// Duplicate the live segment under its own name in a tmp
				// then restore after... simpler: copy the existing segment
				// to a stale name BELOW its first seq is impossible without
				// breaking density — so instead verify idempotence by
				// replay-from-zero: force the floor down by rewriting the
				// manifest with floor 0. Every already-applied record
				// replays again over the bulk-loaded image.
				m, ok, err := wal.ReadCurrentManifest(dir)
				if err != nil || !ok {
					t.Fatalf("manifest: %v", err)
				}
				for i := range m.Floors {
					m.Floors[i] = 0
				}
				if err := wal.WriteManifest(dir, m); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, rs RecoveryStats) {
				if rs.ReplayedRecords == 0 {
					t.Fatal("floor-zero recovery replayed nothing")
				}
			},
		},
		{
			// Crash MID-REBALANCE-BARRIER: the process dies while the
			// barrier record is being appended — a torn record at the
			// tail of one partition. Recovery truncates it and reports
			// the torn tail; the layout change it marked was never
			// snapshotted, so nothing else changes.
			name: "mid-rebalance-barrier",
			sabotage: func(t *testing.T, dir string, oracle map[uint64]uint64) {
				pd := filepath.Join(dir, "wal", "p000")
				entries, err := os.ReadDir(pd)
				if err != nil || len(entries) == 0 {
					t.Fatalf("no wal segments: %v", err)
				}
				seg := filepath.Join(pd, entries[len(entries)-1].Name())
				f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				// A barrier frame cut mid-payload.
				frame := []byte{13, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, wal.RecBarrier, 1, 2}
				f.Write(frame)
				f.Close()
			},
			check: func(t *testing.T, rs RecoveryStats) {
				if rs.TornTails != 1 {
					t.Fatalf("torn tails = %d, want 1", rs.TornTails)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oracle := seedOracle(t)
			d := openDur(t, dir, 1)
			applyOracle(t, d, oracle, 80, 43)
			d.crash()
			d.closeBackend()

			tc.sabotage(t, dir, oracle)

			d = openDur(t, dir, 1)
			defer d.closeBackend()
			defer d.Close()
			tc.check(t, d.Recovery())
			verifyOracle(t, d, oracle)
		})
	}
}

func TestDurableRejectsMismatchedKeyWidth(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir, 1)
	d.Close()
	d.closeBackend()
	_, err := OpenDurable(DurableOptions{Dir: dir}, core.Options{Variant: core.Regular}, 1,
		func() ([]keys.Pair[uint32], error) { return workload.Dataset[uint32](workload.Uniform, 64, 1), nil })
	if err == nil {
		t.Fatal("32-bit open over a 64-bit data dir succeeded")
	}
}

func TestDurableSnapshotSkipsUnchangedEpoch(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir, 1)
	defer d.closeBackend()
	defer d.Close()
	ep1, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := d.Snapshot()
	if err != nil || ep2 != ep1 {
		t.Fatalf("idle snapshot: epoch %d err %v", ep2, err)
	}
	if d.Metrics().SnapshotSkips == 0 {
		t.Fatal("idle snapshot pass not skipped")
	}
}

var errSeedBoom = errors.New("seed failed")

func TestDurableSeedErrorPropagates(t *testing.T) {
	_, err := OpenDurable(DurableOptions{Dir: t.TempDir()}, core.Options{Variant: core.Regular}, 1,
		func() ([]keys.Pair[uint64], error) { return nil, errSeedBoom })
	if !errors.Is(err, errSeedBoom) {
		t.Fatalf("err %v, want seed error", err)
	}
}
