package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Manifest anchors one durable snapshot: which per-shard tree images
// form a consistent cut, at what registry epoch the cut was pinned, and
// the per-partition WAL floor below which every record is already
// reflected in the images. Recovery = bulk-load the images + replay
// each partition's tail past its floor.
//
// On disk a manifest is "HBMF1" + length-prefixed JSON + CRC32C, named
// MANIFEST-<epoch:016x>; the file CURRENT names the committed one. The
// commit protocol is: write tree images (fsync each), write the
// manifest (fsync), then rename a temp CURRENT over the real one
// (fsync dir) — so a crash at any earlier point leaves CURRENT pointing
// at the previous snapshot and the half-written one is garbage to be
// swept, never loaded.
type Manifest struct {
	// Epoch is the registry generation the snapshot cut was pinned at.
	Epoch uint64 `json:"epoch"`
	// TableGen is the split-key table generation at the cut (sharded
	// servers; 0 for a single tree).
	TableGen uint64 `json:"tableGen"`
	// KeyBits is the serving key width (32 or 64).
	KeyBits byte `json:"keyBits"`
	// Bounds are the shard lower bounds at the cut (len = shards-1),
	// as uint64 regardless of key width.
	Bounds []uint64 `json:"bounds"`
	// Trees are the per-shard image files, relative to the data dir,
	// index-aligned with the shard order.
	Trees []string `json:"trees"`
	// Pairs is the total pair count across the images (recovery sanity
	// check and the bulk-load stat).
	Pairs int `json:"pairs"`
	// Partitions is the WAL partition count — fixed at first boot,
	// independent of the (dynamic) shard layout.
	Partitions int `json:"partitions"`
	// Floors[i] is partition i's WAL floor: every record with
	// seq <= Floors[i] is reflected in the images; replay starts past
	// it.
	Floors []uint64 `json:"floors"`
}

const (
	manifestMagic = "HBMF1"
	currentFile   = "CURRENT"
)

// maxManifestLen bounds the JSON body against corrupt length prefixes.
const maxManifestLen = 1 << 24

// ManifestPath returns the manifest filename for a snapshot epoch,
// relative to the data dir.
func ManifestPath(epoch uint64) string {
	return fmt.Sprintf("MANIFEST-%016x", epoch)
}

// EncodeManifest renders m to its on-disk form.
func EncodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(manifestMagic)+8+len(body))
	out = append(out, manifestMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, Checksum(body)), nil
}

// DecodeManifest parses and validates an on-disk manifest image.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic)+8 || string(data[:5]) != manifestMagic {
		return nil, fmt.Errorf("%w: manifest magic", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(data[5:9])
	if n > maxManifestLen || uint64(len(data)) < 9+uint64(n)+4 {
		return nil, fmt.Errorf("%w: manifest length %d", ErrCorrupt, n)
	}
	body := data[9 : 9+n]
	if Checksum(body) != binary.LittleEndian.Uint32(data[9+n:9+n+4]) {
		return nil, fmt.Errorf("%w: manifest checksum", ErrCorrupt)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest body: %v", ErrCorrupt, err)
	}
	if m.Partitions <= 0 || len(m.Floors) != m.Partitions || len(m.Trees) != len(m.Bounds)+1 {
		return nil, fmt.Errorf("%w: manifest shape (partitions %d, floors %d, trees %d, bounds %d)",
			ErrCorrupt, m.Partitions, len(m.Floors), len(m.Trees), len(m.Bounds))
	}
	return &m, nil
}

// WriteManifest durably writes m as MANIFEST-<epoch> and commits it by
// atomically updating CURRENT.
func WriteManifest(dir string, m *Manifest) error {
	img, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	name := ManifestPath(m.Epoch)
	if err := writeFileSync(filepath.Join(dir, name), img); err != nil {
		return err
	}
	// CURRENT commit: temp file + rename is atomic on POSIX; the dir
	// fsync makes the rename durable.
	tmp := filepath.Join(dir, currentFile+".tmp")
	if err := writeFileSync(tmp, []byte(name+"\n")); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	return SyncDir(dir)
}

// ReadCurrentManifest loads the committed manifest: the one CURRENT
// names when it is valid, else the highest-epoch manifest on disk that
// decodes (a crash can tear CURRENT's temp file but never CURRENT
// itself; the fallback scan also heals a manually damaged pointer).
// ok is false when the directory holds no committed snapshot at all.
func ReadCurrentManifest(dir string) (*Manifest, bool, error) {
	if b, err := os.ReadFile(filepath.Join(dir, currentFile)); err == nil {
		name := strings.TrimSpace(string(b))
		if ok := strings.HasPrefix(name, "MANIFEST-"); ok {
			if img, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
				if m, err := DecodeManifest(img); err == nil {
					return m, true, nil
				}
			}
		}
	}
	// Fallback: newest valid manifest by epoch.
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	var epochs []uint64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "MANIFEST-") {
			continue
		}
		if ep, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), "MANIFEST-"), 16, 64); err == nil {
			epochs = append(epochs, ep)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	for _, ep := range epochs {
		img, err := os.ReadFile(filepath.Join(dir, ManifestPath(ep)))
		if err != nil {
			continue
		}
		if m, err := DecodeManifest(img); err == nil {
			return m, true, nil
		}
	}
	return nil, false, nil
}

// SweepSnapshots removes manifests and snapshot image directories from
// epochs other than keep — the garbage left behind by superseded
// snapshots and by crashes mid-snapshot. Returns how many entries were
// removed.
func SweepSnapshots(dir string, keep uint64) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	keepManifest := ManifestPath(keep)
	keepDir := SnapDir(keep)
	removed := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "MANIFEST-") && name != keepManifest:
			if os.Remove(filepath.Join(dir, name)) == nil {
				removed++
			}
		case strings.HasPrefix(name, "snap-") && name != keepDir:
			if os.RemoveAll(filepath.Join(dir, name)) == nil {
				removed++
			}
		}
	}
	return removed
}

// SnapDir returns the snapshot image directory name for an epoch,
// relative to the data dir.
func SnapDir(epoch uint64) string {
	return fmt.Sprintf("snap-%016x", epoch)
}

// writeFileSync writes data to path and fsyncs the file.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
