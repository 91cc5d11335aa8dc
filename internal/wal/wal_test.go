package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hbtree/internal/cpubtree"
)

func payload(i int) []byte {
	return AppendOps[uint32](nil, []cpubtree.Op[uint32]{{Key: uint32(i), Value: uint32(i * 10)}}, 0)
}

func mustOpen(t *testing.T, dir string, part int, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, part, 32, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	const n = 50
	for i := 1; i <= n; i++ {
		seq, err := l.Append(payload(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, err := Scan(dir, 0, 32, 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if res.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	if len(res.Records) != n {
		t.Fatalf("scanned %d records, want %d", len(res.Records), n)
	}
	if res.NextSeq != n+1 {
		t.Fatalf("NextSeq = %d, want %d", res.NextSeq, n+1)
	}
	for i, rec := range res.Records {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if !bytes.Equal(rec.Payload, payload(i+1)) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
	// Floors skip the covered prefix.
	res, err = Scan(dir, 0, 32, 30)
	if err != nil {
		t.Fatalf("Scan floor: %v", err)
	}
	if len(res.Records) != n-30 || res.Records[0].Seq != 31 {
		t.Fatalf("floor scan: %d records starting at %d", len(res.Records), res.Records[0].Seq)
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{FsyncInterval: time.Millisecond})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(payload(w*each + i + 1)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*each {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("group commit did not batch: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, err := Scan(dir, 0, 32, 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(res.Records) != writers*each {
		t.Fatalf("scanned %d records, want %d", len(res.Records), writers*each)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	for i := 1; i <= 10; i++ {
		l.Append(payload(i))
	}
	l.Close()
	l = mustOpen(t, dir, 0, Options{})
	if got := l.NextSeq(); got != 11 {
		t.Fatalf("reopened NextSeq = %d, want 11", got)
	}
	seq, err := l.Append(payload(11))
	if err != nil || seq != 11 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
	l.Close()
	res, err := Scan(dir, 0, 32, 0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(res.Records) != 11 {
		t.Fatalf("scanned %d records, want 11", len(res.Records))
	}
}

// activeSegment returns the single partition-0 segment file with the
// highest first seq.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir, 0)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
	}
	return segs[len(segs)-1].path
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	for i := 1; i <= 5; i++ {
		l.Append(payload(i))
	}
	l.Close()

	// Simulate a crash mid-append: a frame whose payload was cut short.
	torn := appendFrame(nil, payload(6))
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn[:len(torn)-3])
	f.Close()

	res, err := Scan(dir, 0, 32, 0)
	if err != nil {
		t.Fatalf("Scan over torn tail: %v", err)
	}
	if !res.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(res.Records) != 5 || res.NextSeq != 6 {
		t.Fatalf("torn scan: %d records, NextSeq %d", len(res.Records), res.NextSeq)
	}

	l = mustOpen(t, dir, 0, Options{})
	if got := l.NextSeq(); got != 6 {
		t.Fatalf("NextSeq after torn reopen = %d, want 6", got)
	}
	if seq, err := l.Append(payload(6)); err != nil || seq != 6 {
		t.Fatalf("append after torn reopen: seq %d err %v", seq, err)
	}
	l.Close()
	res, err = Scan(dir, 0, 32, 0)
	if err != nil || res.TornTail || len(res.Records) != 6 {
		t.Fatalf("post-repair scan: err %v torn %v records %d", err, res.TornTail, len(res.Records))
	}
}

func TestRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	for i := 1; i <= 4; i++ {
		l.Append(payload(i))
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	for i := 5; i <= 8; i++ {
		l.Append(payload(i))
	}
	if got := l.Stats().Segments; got != 2 {
		t.Fatalf("segments after rotate = %d, want 2", got)
	}
	// Records 1..4 are covered; the sealed segment is reclaimable.
	if err := l.TruncateBelow(5); err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	st := l.Stats()
	if st.Segments != 1 || st.Truncated != 1 {
		t.Fatalf("after truncate: %d segments, %d truncated", st.Segments, st.Truncated)
	}
	l.Close()
	res, err := Scan(dir, 0, 32, 4)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(res.Records) != 4 || res.Records[0].Seq != 5 {
		t.Fatalf("post-truncate scan: %d records from %d", len(res.Records), res.Records[0].Seq)
	}
}

func TestInteriorCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	for i := 1; i <= 3; i++ {
		l.Append(payload(i))
	}
	l.Rotate()
	for i := 4; i <= 6; i++ {
		l.Append(payload(i))
	}
	l.Close()
	segs, _ := listSegments(dir, 0)
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %d", len(segs))
	}
	// Flip a payload byte in the INTERIOR segment: not a torn tail, a
	// real corruption.
	data, _ := os.ReadFile(segs[0].path)
	data[headerLen+9] ^= 0xff
	os.WriteFile(segs[0].path, data, 0o644)

	if _, err := Scan(dir, 0, 32, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption: err %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, 0, 32, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over interior corruption: err %v, want ErrCorrupt", err)
	}
}

// TestShortLastSegmentRecovers: a crash inside segment creation leaves
// a last segment shorter than its header. It holds no record, so Scan
// skips it as a torn tail and Open replaces it — but only when it is the
// last segment and starts where the log resumes; a short interior
// segment, a short segment at the wrong seq and a full header with bad
// magic all stay corrupt.
func TestShortLastSegmentRecovers(t *testing.T) {
	header := appendHeader(nil, 32, 0, 4)
	for _, c := range []struct {
		name    string
		appends int    // records written before the crash
		seq     uint64 // first seq in the short segment's filename
		body    []byte // the short segment's contents
	}{
		{"empty after three records", 3, 4, nil},
		{"ten header bytes after three records", 3, 4, header[:10]},
		{"empty sole segment", 0, 1, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.appends > 0 {
				l := mustOpen(t, dir, 0, Options{})
				for i := 1; i <= c.appends; i++ {
					if _, err := l.Append(payload(i)); err != nil {
						t.Fatal(err)
					}
				}
				mustDo(t, l.Close())
			} else {
				mustDo(t, os.MkdirAll(partDir(dir, 0), 0o755))
			}
			seg := segPath(dir, 0, c.seq)
			mustDo(t, os.WriteFile(seg, c.body, 0o644))

			res, err := Scan(dir, 0, 32, 0)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if !res.TornTail || len(res.Records) != c.appends || res.NextSeq != c.seq {
				t.Fatalf("Scan: torn %v, %d records, NextSeq %d; want torn, %d, %d",
					res.TornTail, len(res.Records), res.NextSeq, c.appends, c.seq)
			}

			l := mustOpen(t, dir, 0, Options{})
			if seq, err := l.Append(payload(int(c.seq))); err != nil || seq != c.seq {
				t.Fatalf("append after reopen: seq %d err %v, want %d", seq, err, c.seq)
			}
			mustDo(t, l.Close())
			res, err = Scan(dir, 0, 32, 0)
			if err != nil || res.TornTail || len(res.Records) != c.appends+1 {
				t.Fatalf("post-repair scan: err %v torn %v records %d", err, res.TornTail, len(res.Records))
			}
			if fi, err := os.Stat(seg); err != nil || fi.Size() <= headerLen {
				t.Fatalf("segment not recreated with its record: %v", err)
			}
		})
	}

	for _, c := range []struct {
		name string
		// setup leaves records 1..3 in seg 1 and 4..6 in seg 4, then
		// damages the log.
		damage func(t *testing.T, dir string)
	}{
		{"short interior segment", func(t *testing.T, dir string) {
			mustDo(t, os.Truncate(segPath(dir, 0, 4), 10))
			mustDo(t, os.WriteFile(segPath(dir, 0, 7), nil, 0o644))
		}},
		{"short last segment at the wrong seq", func(t *testing.T, dir string) {
			mustDo(t, os.WriteFile(segPath(dir, 0, 9), nil, 0o644))
		}},
		{"full last header with bad magic", func(t *testing.T, dir string) {
			bad := appendHeader(nil, 32, 0, 7)
			bad[0] ^= 0xff
			mustDo(t, os.WriteFile(segPath(dir, 0, 7), bad, 0o644))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, 0, Options{})
			for i := 1; i <= 6; i++ {
				if i == 4 {
					mustDo(t, l.Rotate())
				}
				if _, err := l.Append(payload(i)); err != nil {
					t.Fatal(err)
				}
			}
			mustDo(t, l.Close())
			c.damage(t, dir)
			if _, err := Scan(dir, 0, 32, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Scan: err %v, want ErrCorrupt", err)
			}
			if _, err := Open(dir, 0, 32, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: err %v, want ErrCorrupt", err)
			}
		})
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionAndWidthMismatch(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	l.Append(payload(1))
	l.Close()
	if _, err := Scan(dir, 0, 64, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("width mismatch: err %v, want ErrCorrupt", err)
	}
	// Copy partition 0's segment into partition 1's directory.
	seg := activeSegment(t, dir)
	data, _ := os.ReadFile(seg)
	os.MkdirAll(partDir(dir, 1), 0o755)
	os.WriteFile(filepath.Join(partDir(dir, 1), filepath.Base(seg)), data, 0o644)
	if _, err := Scan(dir, 1, 32, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partition mismatch: err %v, want ErrCorrupt", err)
	}
}

func TestOpsCodecRoundTrip(t *testing.T) {
	ops32 := []cpubtree.Op[uint32]{
		{Key: 1, Value: 100},
		{Key: 0xffffffff, Value: 0},
		{Key: 7, Delete: true},
	}
	p := AppendOps[uint32](nil, ops32, 3)
	got, method, err := DecodeOps[uint32](p)
	if err != nil {
		t.Fatalf("DecodeOps: %v", err)
	}
	if method != 3 || len(got) != len(ops32) {
		t.Fatalf("method %d len %d", method, len(got))
	}
	for i := range got {
		if got[i] != ops32[i] {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops32[i])
		}
	}

	ops64 := []cpubtree.Op[uint64]{
		{Key: 1 << 40, Value: 99},
		{Key: 2, Delete: true},
	}
	p = AppendOps[uint64](nil, ops64, 0)
	got64, _, err := DecodeOps[uint64](p)
	if err != nil {
		t.Fatalf("DecodeOps 64: %v", err)
	}
	for i := range got64 {
		if got64[i] != ops64[i] {
			t.Fatalf("op64 %d: %+v != %+v", i, got64[i], ops64[i])
		}
	}

	// Truncated and mistyped payloads are ErrCorrupt, not panics.
	if _, _, err := DecodeOps[uint32](p[:len(p)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short ops payload: %v", err)
	}
	if _, _, err := DecodeOps[uint32]([]byte{RecBarrier, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mistyped ops payload: %v", err)
	}
}

func TestBarrierCodecRoundTrip(t *testing.T) {
	b := Barrier{Gen: 42, Shards: 7}
	p := AppendBarrier(nil, b)
	got, err := DecodeBarrier(p)
	if err != nil || got != b {
		t.Fatalf("barrier round trip: %+v err %v", got, err)
	}
	if _, err := DecodeBarrier(p[:5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short barrier: %v", err)
	}
}

func testManifest() *Manifest {
	return &Manifest{
		Epoch:      17,
		TableGen:   3,
		KeyBits:    32,
		Bounds:     []uint64{1000, 2000},
		Trees:      []string{"snap-0000000000000011/shard-000.tree", "snap-0000000000000011/shard-001.tree", "snap-0000000000000011/shard-002.tree"},
		Pairs:      4096,
		Partitions: 4,
		Floors:     []uint64{10, 20, 30, 40},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	img, err := EncodeManifest(m)
	if err != nil {
		t.Fatalf("EncodeManifest: %v", err)
	}
	got, err := DecodeManifest(img)
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if got.Epoch != m.Epoch || got.Pairs != m.Pairs || len(got.Floors) != 4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// A flipped body byte fails the checksum.
	img[10] ^= 1
	if _, err := DecodeManifest(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt manifest: %v", err)
	}
	img[10] ^= 1
	if _, err := DecodeManifest(img[:8]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short manifest: %v", err)
	}
	// Shape violations are corruption even when the JSON parses.
	bad := testManifest()
	bad.Floors = bad.Floors[:2]
	img2, _ := EncodeManifest(bad)
	if _, err := DecodeManifest(img2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad shape: %v", err)
	}
}

func TestManifestCommitAndFallback(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCurrentManifest(dir); ok || err != nil {
		t.Fatalf("empty dir: ok %v err %v", ok, err)
	}
	m1 := testManifest()
	m1.Epoch = 5
	if err := WriteManifest(dir, m1); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	m2 := testManifest()
	m2.Epoch = 9
	if err := WriteManifest(dir, m2); err != nil {
		t.Fatalf("WriteManifest 2: %v", err)
	}
	got, ok, err := ReadCurrentManifest(dir)
	if err != nil || !ok || got.Epoch != 9 {
		t.Fatalf("current: epoch %d ok %v err %v", got.Epoch, ok, err)
	}
	// A trashed CURRENT falls back to the newest manifest on disk.
	os.WriteFile(filepath.Join(dir, currentFile), []byte("garbage\n"), 0o644)
	got, ok, err = ReadCurrentManifest(dir)
	if err != nil || !ok || got.Epoch != 9 {
		t.Fatalf("fallback: epoch %d ok %v err %v", got.Epoch, ok, err)
	}
	// A half-written (corrupt) newest manifest falls back to the older
	// committed one — the mid-snapshot crash case.
	m3img := []byte("HBMF1 this is not a manifest")
	os.WriteFile(filepath.Join(dir, ManifestPath(12)), m3img, 0o644)
	os.Remove(filepath.Join(dir, currentFile))
	got, ok, err = ReadCurrentManifest(dir)
	if err != nil || !ok || got.Epoch != 9 {
		t.Fatalf("skip-corrupt fallback: epoch %d ok %v err %v", got.Epoch, ok, err)
	}
}

func TestSweepSnapshots(t *testing.T) {
	dir := t.TempDir()
	for _, ep := range []uint64{3, 7} {
		m := testManifest()
		m.Epoch = ep
		WriteManifest(dir, m)
		os.MkdirAll(filepath.Join(dir, SnapDir(ep)), 0o755)
	}
	removed := SweepSnapshots(dir, 7)
	if removed != 2 { // MANIFEST-3 and snap-3
		t.Fatalf("removed %d entries, want 2", removed)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestPath(7))); err != nil {
		t.Fatalf("kept manifest gone: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapDir(3))); !os.IsNotExist(err) {
		t.Fatalf("swept snap dir survives: %v", err)
	}
}

// TestLongestValidPrefix is the deterministic core of the fuzz property:
// a valid segment image cut at EVERY byte offset yields exactly the
// records fully contained before the cut, never an error past the
// header and never a panic.
func TestLongestValidPrefix(t *testing.T) {
	img := appendHeader(nil, 32, 0, 1)
	var ends []int // offset just past each record
	for i := 1; i <= 6; i++ {
		img = appendFrame(img, payload(i))
		ends = append(ends, len(img))
	}
	for cut := headerLen; cut <= len(img); cut++ {
		recs, torn, err := ScanBytes(img[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 0
		for _, e := range ends {
			if e <= cut {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), want)
		}
		// Torn iff bytes remain past the last complete record.
		lastEnd := headerLen
		if want > 0 {
			lastEnd = ends[want-1]
		}
		wantTorn := cut > lastEnd
		if torn != wantTorn {
			t.Fatalf("cut %d: torn %v, want %v", cut, torn, wantTorn)
		}
	}
}

func TestScanBytesBitFlips(t *testing.T) {
	img := appendHeader(nil, 32, 0, 1)
	for i := 1; i <= 4; i++ {
		img = appendFrame(img, payload(i))
	}
	full, _, err := ScanBytes(img)
	if err != nil || len(full) != 4 {
		t.Fatalf("baseline: %d records err %v", len(full), err)
	}
	// Flipping any single body bit never panics and never yields MORE
	// than the untouched prefix plus whatever happens to stay valid —
	// in practice the scan stops at the flipped record.
	for off := headerLen; off < len(img); off++ {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x01
		recs, _, err := ScanBytes(mut)
		if err != nil {
			t.Fatalf("offset %d: unexpected error %v", off, err)
		}
		if len(recs) > 4 {
			t.Fatalf("offset %d: %d records from a 4-record image", off, len(recs))
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	l.Close()
	if _, err := l.Append(payload(1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestOversizedAppendRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty append succeeded")
	}
	if _, err := l.Append(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversized append succeeded")
	}
}

func TestManyPartitionsIndependent(t *testing.T) {
	dir := t.TempDir()
	const parts = 3
	logs := make([]*Log, parts)
	for i := range logs {
		logs[i] = mustOpen(t, dir, i, Options{})
	}
	for i, l := range logs {
		for j := 0; j <= i; j++ {
			l.Append(payload(j))
		}
		l.Close()
	}
	for i := 0; i < parts; i++ {
		res, err := Scan(dir, i, 32, 0)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if len(res.Records) != i+1 {
			t.Fatalf("partition %d: %d records, want %d", i, len(res.Records), i+1)
		}
	}
}

func BenchmarkAppendGroupCommit(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, 0, 32, Options{FsyncInterval: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	p := payload(1)
	b.SetBytes(int64(len(p) + 8))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(l.Stats().Syncs), "syncs")
}
