package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Segment file layout: a 24-byte header followed by framed records.
//
//	[0:6]   magic "HBWAL1"
//	[6]     format version (1)
//	[7]     key width in bits (32 or 64)
//	[8:12]  partition index, little-endian
//	[12:20] sequence number of the first record, little-endian
//	[20:24] CRC32C of bytes [0:20]
//
// Records within a partition are densely numbered: the i-th record of a
// segment with first-seq F has sequence F+i. Segment files are named
// seg-<firstseq:016x>.wal so a lexical sort is a seq sort.
const (
	segMagic   = "HBWAL1"
	segVersion = byte(1)
	headerLen  = 24
)

// Options tunes a Log.
type Options struct {
	// FsyncInterval is the group-commit window: appends are batched and
	// fsynced together at most this far apart, and every Append blocks
	// until the sync covering its record completes. Zero syncs every
	// append inline (strictest, slowest).
	FsyncInterval time.Duration
}

// Stats is a snapshot of a Log's counters.
type Stats struct {
	Appends   int64  // records appended
	Syncs     int64  // fsync calls
	Bytes     int64  // record bytes appended (frames included)
	LastSeq   uint64 // last assigned sequence number (0 = none)
	Segments  int    // live segment files
	Truncated int64  // segment files deleted by TruncateBelow
}

// Log is one partition's append-only write-ahead log. Appends are
// durable when they return: the record has been written and covered by
// an fsync (its own, or the group commit it joined). A Log is safe for
// concurrent appends.
type Log struct {
	dir     string
	part    int
	keyBits byte

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File // active segment
	pending []byte   // framed records awaiting flush
	nextSeq uint64   // seq the next append receives
	durable uint64   // highest seq covered by an fsync
	flushed uint64   // highest seq handed to a flush in progress
	err     error    // sticky I/O error; fails all later appends
	closed  bool

	segs []segInfo // live segments, ascending firstSeq (last = active)

	interval time.Duration
	stop     chan struct{}
	loopDone chan struct{}

	appends, syncs, bytes, truncated int64
}

type segInfo struct {
	path     string
	firstSeq uint64
}

// partDir returns the on-disk directory of one partition's log.
func partDir(dir string, part int) string {
	return filepath.Join(dir, fmt.Sprintf("p%03d", part))
}

func segPath(dir string, part int, firstSeq uint64) string {
	return filepath.Join(partDir(dir, part), fmt.Sprintf("seg-%016x.wal", firstSeq))
}

// appendHeader encodes a segment header.
func appendHeader(dst []byte, keyBits byte, part int, firstSeq uint64) []byte {
	dst = append(dst, segMagic...)
	dst = append(dst, segVersion, keyBits)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(part))
	dst = binary.LittleEndian.AppendUint64(dst, firstSeq)
	return binary.LittleEndian.AppendUint32(dst, Checksum(dst[len(dst)-20:]))
}

// parseHeader validates a segment header and returns its fields.
func parseHeader(h []byte) (keyBits byte, part int, firstSeq uint64, err error) {
	if len(h) < headerLen {
		return 0, 0, 0, fmt.Errorf("%w: segment header %d bytes", ErrCorrupt, len(h))
	}
	if string(h[:6]) != segMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, h[:6])
	}
	if h[6] != segVersion {
		return 0, 0, 0, fmt.Errorf("%w: segment version %d", ErrCorrupt, h[6])
	}
	if Checksum(h[:20]) != binary.LittleEndian.Uint32(h[20:24]) {
		return 0, 0, 0, fmt.Errorf("%w: segment header checksum", ErrCorrupt)
	}
	return h[7], int(binary.LittleEndian.Uint32(h[8:12])), binary.LittleEndian.Uint64(h[12:20]), nil
}

// Open opens (or creates) partition part of the log rooted at dir for
// appending. keyBits is the serving key width (32 or 64); it is stamped
// into new segment headers and validated against existing ones.
// Existing segments are scanned so appends continue the dense sequence
// past the last valid record; a torn final record is truncated away
// (its append was never acked — the sync covering it never completed),
// and a last segment cut short inside its header is removed and created
// again.
func Open(dir string, part int, keyBits byte, opt Options) (*Log, error) {
	pd := partDir(dir, part)
	if err := os.MkdirAll(pd, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:      dir,
		part:     part,
		keyBits:  keyBits,
		interval: opt.FsyncInterval,
		nextSeq:  1,
	}
	l.cond = sync.NewCond(&l.mu)

	segs, err := listSegments(dir, part)
	if err != nil {
		return nil, err
	}
	recreate := false
	for i, si := range segs {
		res, err := scanSegment(si.path, keyBits, part)
		if err != nil {
			if !headerless(res, si, i == len(segs)-1, l.nextSeq) {
				return nil, err
			}
			// A crash between creating the segment and syncing its
			// header: nothing was ever appended to it.
			if err := os.Remove(si.path); err != nil {
				return nil, err
			}
			if err := SyncDir(pd); err != nil {
				return nil, err
			}
			recreate = true
			break
		}
		if res.firstSeq != si.firstSeq {
			return nil, fmt.Errorf("%w: segment %s header seq %d", ErrCorrupt, si.path, res.firstSeq)
		}
		if i > 0 && res.firstSeq != l.nextSeq {
			return nil, fmt.Errorf("%w: segment %s starts at seq %d, want %d", ErrCorrupt, si.path, res.firstSeq, l.nextSeq)
		}
		if res.tornAt >= 0 {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("%w: segment %s: invalid record inside interior segment", ErrCorrupt, si.path)
			}
			// Drop the torn tail so the resumed log stays dense and a
			// future reader never sees the half-record. The torn record's
			// append was never acked: the sync covering it never ran.
			if err := os.Truncate(si.path, res.tornAt); err != nil {
				return nil, err
			}
		}
		l.segs = append(l.segs, si)
		l.nextSeq = res.firstSeq + uint64(res.records)
	}
	l.durable = l.nextSeq - 1
	l.flushed = l.durable

	if len(l.segs) == 0 || recreate {
		if err := l.newSegmentLocked(l.nextSeq); err != nil {
			return nil, err
		}
	} else {
		active := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
	}

	if l.interval > 0 {
		l.stop = make(chan struct{})
		l.loopDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// listSegments returns partition part's segment files in ascending
// first-seq order.
func listSegments(dir string, part int) ([]segInfo, error) {
	entries, err := os.ReadDir(partDir(dir, part))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{path: filepath.Join(partDir(dir, part), name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// newSegmentLocked creates and activates a fresh segment starting at
// firstSeq. Callers hold l.mu (or are the constructor).
func (l *Log) newSegmentLocked(firstSeq uint64) error {
	path := segPath(l.dir, l.part, firstSeq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := appendHeader(nil, l.keyBits, l.part, firstSeq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.segs = append(l.segs, segInfo{path: path, firstSeq: firstSeq})
	return SyncDir(filepath.Dir(path))
}

// Append frames payload as the next record and blocks until it is
// durable (covered by an fsync). It returns the record's sequence
// number. Concurrent appends share group commits: all records buffered
// when a flush runs are covered by its single fsync.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: append payload %d bytes", len(payload))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, os.ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	seq := l.nextSeq
	l.nextSeq++
	l.pending = appendFrame(l.pending, payload)
	l.appends++
	l.bytes += int64(8 + len(payload))
	if l.interval == 0 {
		err := l.flushLocked()
		l.mu.Unlock()
		if err != nil {
			return 0, err
		}
		return seq, nil
	}
	// Group commit: wait until a flush covers this record.
	for l.durable < seq && l.err == nil {
		l.cond.Wait()
	}
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// flushLocked writes and fsyncs everything pending. Callers hold l.mu;
// the lock is held across the write+sync (simple and correct — the
// background flushLoop is what gives concurrent appends their overlap).
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if len(l.pending) == 0 {
		return nil
	}
	buf := l.pending
	top := l.nextSeq - 1
	if _, err := l.f.Write(buf); err != nil {
		l.fail(err)
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.fail(err)
		return err
	}
	l.pending = l.pending[:0]
	l.durable = top
	l.flushed = top
	l.syncs++
	l.cond.Broadcast()
	return nil
}

// fail records a sticky I/O error and wakes every waiter.
func (l *Log) fail(err error) {
	l.err = err
	l.cond.Broadcast()
}

// flushLoop is the group-commit ticker.
func (l *Log) flushLoop() {
	defer close(l.loopDone)
	tick := time.NewTicker(l.interval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
			l.mu.Lock()
			l.flushLocked()
			l.mu.Unlock()
		}
	}
}

// Sync forces an immediate flush of everything pending.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// Rotate seals the active segment and starts a new one whose first
// record will carry the next sequence number — the snapshot writer's
// hook, so truncation operates on whole sealed segments.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	return l.newSegmentLocked(l.nextSeq)
}

// TruncateBelow deletes sealed segments every record of which has
// sequence number < seq — the log-reclaim step after a snapshot that
// covers everything below seq. The active segment is never deleted.
func (l *Log) TruncateBelow(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	for i, si := range l.segs {
		last := i == len(l.segs)-1
		// A sealed segment's records end where the next one starts.
		if !last && l.segs[i+1].firstSeq <= seq {
			if err := os.Remove(si.path); err != nil && !os.IsNotExist(err) {
				l.segs = append(kept, l.segs[i:]...)
				return err
			}
			l.truncated++
			continue
		}
		kept = append(kept, si)
	}
	l.segs = kept
	return nil
}

// NextSeq returns the sequence number the next append will receive.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:   l.appends,
		Syncs:     l.syncs,
		Bytes:     l.bytes,
		LastSeq:   l.nextSeq - 1,
		Segments:  len(l.segs),
		Truncated: l.truncated,
	}
}

// Close flushes pending records and closes the active segment. Appends
// after Close fail with os.ErrClosed. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	ferr := l.flushLocked()
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.loopDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Close(); err != nil && ferr == nil {
			ferr = err
		}
		l.f = nil
	}
	return ferr
}

// SyncDir fsyncs a directory so entry creation/removal is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
