package wal

import (
	"encoding/binary"
	"fmt"
	"os"
)

// Record is one decoded log record: its dense per-partition sequence
// number and the raw typed payload (see RecOps/RecBarrier).
type Record struct {
	Seq     uint64
	Payload []byte
}

// ScanResult reports one partition scan: the records of the longest
// valid prefix with Seq > the requested floor, and how the scan ended.
type ScanResult struct {
	Records []Record
	// NextSeq is the sequence number following the last valid record
	// (i.e. 1 + the highest seq scanned, or floor+1 when nothing was).
	NextSeq uint64
	// TornTail reports that the final segment ended inside a record —
	// the expected artifact of a crash between a write and its group
	// commit. The torn bytes are not part of Records.
	TornTail bool
}

// segScan is the low-level result of scanning one segment file.
type segScan struct {
	firstSeq uint64
	records  int
	tornAt   int64 // file offset of the first invalid byte, or -1 if clean
	payloads [][]byte
	// short marks a file shorter than its header: a crash inside
	// segment creation, before the header's sync. It comes with an
	// ErrCorrupt error, which the caller may waive for the last segment
	// (see headerless).
	short bool
}

// headerless reports whether a segment whose scan returned ss is the
// remnant of a crash inside its own creation, and so holds no record:
// it is shorter than a header, it is the last segment, and its filename
// seq is the seq the log resumes at. Only such a segment is dropped on
// recovery; a short interior segment, or a full header with bad magic
// or checksum, stays corrupt.
func headerless(ss segScan, si segInfo, last bool, resume uint64) bool {
	return ss.short && last && si.firstSeq == resume
}

// scanSegment reads one segment file, validating the header against the
// expected key width and partition, and decodes records until the bytes
// stop being valid: a clean EOF leaves tornAt == -1; anything else —
// short frame, short payload, CRC mismatch, oversized length — sets
// tornAt to the offset where the valid prefix ends. It never panics on
// arbitrary bytes (FuzzWALDecode pins this through ScanBytes).
func scanSegment(path string, keyBits byte, part int) (segScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segScan{}, err
	}
	kb, p, firstSeq, err := parseHeader(data)
	if err != nil {
		return segScan{short: len(data) < headerLen}, fmt.Errorf("%s: %w", path, err)
	}
	if kb != keyBits {
		return segScan{}, fmt.Errorf("%w: %s: key width %d bits, want %d", ErrCorrupt, path, kb, keyBits)
	}
	if p != part {
		return segScan{}, fmt.Errorf("%w: %s: partition %d, want %d", ErrCorrupt, path, p, part)
	}
	res := segScan{firstSeq: firstSeq, tornAt: -1}
	off := int64(headerLen)
	body := data[headerLen:]
	for len(body) > 0 {
		n, payload, ok := nextFrame(body)
		if !ok {
			res.tornAt = off
			break
		}
		res.payloads = append(res.payloads, payload)
		res.records++
		body = body[n:]
		off += int64(n)
	}
	return res, nil
}

// nextFrame decodes one framed record from the front of b. ok is false
// when b does not start with a complete, checksum-valid frame.
func nextFrame(b []byte) (consumed int, payload []byte, ok bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > maxRecordLen || uint64(len(b)) < 8+uint64(n) {
		return 0, nil, false
	}
	payload = b[8 : 8+n]
	if Checksum(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, false
	}
	return int(8 + n), payload, true
}

// ScanBytes decodes the record stream of a single segment image held in
// memory (header included) — the fuzz target's entry point. It returns
// the longest valid prefix of records and whether the image ended
// inside a record; a malformed header is an error.
func ScanBytes(data []byte) ([]Record, bool, error) {
	_, _, firstSeq, err := parseHeader(data)
	if err != nil {
		return nil, false, err
	}
	var recs []Record
	body := data[headerLen:]
	torn := false
	seq := firstSeq
	for len(body) > 0 {
		n, payload, ok := nextFrame(body)
		if !ok {
			torn = true
			break
		}
		recs = append(recs, Record{Seq: seq, Payload: payload})
		seq++
		body = body[n:]
	}
	return recs, torn, nil
}

// Scan reads partition part's records with sequence number > floor, in
// order, across all live segments. Segments must chain densely (each
// one's first seq following the previous one's last); a torn final
// record in the LAST segment is tolerated and reported, as is a last
// segment cut short inside its header (see headerless), while a torn or
// corrupt interior segment is an error — with a crash-only fault model
// only the tail of the log can be mid-write.
func Scan(dir string, part int, keyBits byte, floor uint64) (ScanResult, error) {
	segs, err := listSegments(dir, part)
	if err != nil {
		return ScanResult{}, err
	}
	res := ScanResult{NextSeq: floor + 1}
	next := uint64(0)
	for i, si := range segs {
		ss, err := scanSegment(si.path, keyBits, part)
		if err != nil {
			if headerless(ss, si, i == len(segs)-1, max(next, 1)) {
				res.TornTail = true
				break
			}
			return ScanResult{}, err
		}
		if ss.firstSeq != si.firstSeq {
			return ScanResult{}, fmt.Errorf("%w: %s: header seq %d, filename says %d", ErrCorrupt, si.path, ss.firstSeq, si.firstSeq)
		}
		if next != 0 && ss.firstSeq != next {
			return ScanResult{}, fmt.Errorf("%w: %s: segment starts at seq %d, want %d", ErrCorrupt, si.path, ss.firstSeq, next)
		}
		if ss.tornAt >= 0 {
			if i != len(segs)-1 {
				return ScanResult{}, fmt.Errorf("%w: %s: invalid record inside interior segment", ErrCorrupt, si.path)
			}
			res.TornTail = true
		}
		for j, payload := range ss.payloads {
			seq := ss.firstSeq + uint64(j)
			if seq > floor {
				res.Records = append(res.Records, Record{Seq: seq, Payload: payload})
			}
		}
		next = ss.firstSeq + uint64(ss.records)
	}
	if next > floor {
		res.NextSeq = next
	}
	return res, nil
}
