package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Disk layout under the cache root:
//
//	format          — layout/format tag; mismatch clears the cache
//	entries/<hex>   — one sealed file per key (see WriteSealed), named by
//	                  the key (or its sha256 when the key is not a digest)
//
// A read re-hashes the value against the sha256 sealed in front of it, so
// a flipped bit is detected, the entry evicted, and the caller recomputes.
// A re-put replaces the entry in place. Writes are crash-safe
// (WriteFileAtomic): a crash leaves either the old entry or the new one,
// never a torn file, and leftover tmp-* files are swept at Open.
//
// Eviction is LRU: when resident bytes exceed the cap, the coldest entries
// are removed until under cap. Recency lives on the entry files: every Put
// and Get stamps the entry's mtime, and OpenDisk seeds its logical clock
// from the mtimes, ties broken by name. Within a process the logical clock
// alone orders entries, so a wall-clock step can only reorder eviction,
// never change what a read returns.

// ErrCorrupt marks a sealed file whose value no longer hashes to the
// sha256 it was written with, or that is too short to hold one.
var ErrCorrupt = errors.New("rescache: sealed file is corrupt")

// WriteSealed writes value to path crash-safely (WriteFileAtomic), behind
// its sha256, so ReadSealed can tell an intact file from a damaged one.
// The disk tier's entries and the job server's checkpoint files are
// sealed files.
func WriteSealed(path string, value []byte) error {
	sum := sha256.Sum256(value)
	return WriteFileAtomic(path, append(sum[:], value...))
}

// ReadSealed returns the value WriteSealed stored at path after re-checking
// its sha256. A damaged file fails with ErrCorrupt; a missing one with an
// error for which os.IsNotExist holds.
func ReadSealed(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < sha256.Size {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, path)
	}
	value := b[sha256.Size:]
	if sum := sha256.Sum256(value); !bytes.Equal(sum[:], b[:sha256.Size]) {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, path)
	}
	return value, nil
}

// Disk is the persistent tier. All methods are safe for concurrent use; a
// single mutex serializes metadata (the size and atime maps), which is fine
// because entry I/O is small compared to the simulations being memoized.
type Disk struct {
	root string
	cap  int64

	mu     sync.Mutex
	sizes  map[string]int64 // live entries: name → value size
	atimes map[string]int64 // name → last access (logical clock)
	clock  int64            // logical time, seeded from the entries' mtimes

	evictions uint64
	corrupt   uint64
}

// OpenDisk attaches to (or initializes) the disk tier rooted at dir. A
// directory written under another format tag than ArtifactFormat() is
// cleared; a non-empty directory that is not a cache at all (no format
// file, but has other content) is refused rather than clobbered.
func OpenDisk(dir string, capBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: create cache dir: %w", err)
	}
	format := ArtifactFormat()
	fPath := filepath.Join(dir, "format")
	have, err := os.ReadFile(fPath)
	switch {
	case err == nil:
		if strings.TrimSpace(string(have)) != format {
			if err := clearCache(dir); err != nil {
				return nil, err
			}
			if err := WriteFileAtomic(fPath, []byte(format+"\n")); err != nil {
				return nil, err
			}
		}
	case os.IsNotExist(err):
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			return nil, fmt.Errorf("rescache: read cache dir: %w", rerr)
		}
		if len(entries) > 0 {
			return nil, fmt.Errorf("rescache: %s is non-empty and has no format file; refusing to use it as a cache dir", dir)
		}
		if err := WriteFileAtomic(fPath, []byte(format+"\n")); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("rescache: read format file: %w", err)
	}
	d := &Disk{
		root:   dir,
		cap:    capBytes,
		sizes:  map[string]int64{},
		atimes: map[string]int64{},
	}
	if err := os.MkdirAll(d.entryDir(), 0o755); err != nil {
		return nil, fmt.Errorf("rescache: create entries: %w", err)
	}
	if err := d.scan(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweepLocked()
	return d, nil
}

// clearCache removes the cache-owned entries under dir, leaving the
// directory itself (the caller may not own it). blobs and keys are the
// content-addressed layout of format 1; atime.log is the access journal
// older builds kept beside entries/ (a leftover one is otherwise ignored).
func clearCache(dir string) error {
	for _, name := range []string{"entries", "blobs", "keys", "atime.log", "format"} {
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("rescache: clear stale cache: %w", err)
		}
	}
	return nil
}

// scan inventories live entries, seeds each one's recency from its mtime
// (the logical clock starts past the newest), and sweeps crashed temp
// files.
func (d *Disk) scan() error {
	entries, err := os.ReadDir(d.entryDir())
	if err != nil {
		return fmt.Errorf("rescache: scan entries: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(d.entryDir(), name))
			continue
		}
		if !isHexDigest(name) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		d.sizes[name] = max(info.Size()-sha256.Size, 0)
		d.atimes[name] = info.ModTime().UnixNano()
		d.clock = max(d.clock, d.atimes[name])
	}
	return nil
}

func (d *Disk) entryDir() string { return filepath.Join(d.root, "entries") }

// normKey maps an arbitrary cache key onto a fixed-width hex filename. The
// server's config hashes are already 64-hex sha256 strings and pass
// through unchanged, so entry files line up with artifact config hashes;
// anything else is hashed first.
func normKey(key string) string {
	if isHexDigest(key) {
		return key
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// isHexDigest reports whether s is a lowercase 64-hex sha256 digest.
func isHexDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the value stored under key after re-verifying its sealed
// sha256. A damaged entry is evicted and counted, and Get misses, so the
// caller recomputes instead of consuming a damaged artifact.
func (d *Disk) Get(key string) ([]byte, bool) {
	name := normKey(key)
	blob, err := ReadSealed(filepath.Join(d.entryDir(), name))
	d.mu.Lock()
	defer d.mu.Unlock()
	if errors.Is(err, ErrCorrupt) {
		d.corrupt++
		d.dropLocked(name)
	}
	if err != nil {
		return nil, false
	}
	d.touchLocked(name)
	return blob, true
}

// Put stores blob under key, replacing any earlier entry, then sweeps if
// over cap.
func (d *Disk) Put(key string, blob []byte) error {
	name := normKey(key)
	if err := WriteSealed(filepath.Join(d.entryDir(), name), blob); err != nil {
		return err
	}
	d.mu.Lock()
	d.sizes[name] = int64(len(blob))
	d.touchLocked(name)
	d.sweepLocked()
	d.mu.Unlock()
	return nil
}

// dropLocked removes an entry's file and bookkeeping.
func (d *Disk) dropLocked(name string) {
	os.Remove(filepath.Join(d.entryDir(), name))
	delete(d.sizes, name)
	delete(d.atimes, name)
}

// touchLocked stamps name as most recently used: on the logical clock,
// which orders entries within this process, and on the entry file's mtime,
// which carries the order to the next OpenDisk. Recency is advisory, so a
// failed stamp is ignored.
func (d *Disk) touchLocked(name string) {
	d.clock++
	d.atimes[name] = d.clock
	now := time.Now()
	os.Chtimes(filepath.Join(d.entryDir(), name), now, now)
}

// sweepLocked evicts least-recently-used entries until resident bytes fit
// the cap.
func (d *Disk) sweepLocked() {
	var total int64
	for _, sz := range d.sizes {
		total += sz
	}
	if total <= d.cap {
		return
	}
	order := make([]string, 0, len(d.sizes))
	for name := range d.sizes {
		order = append(order, name)
	}
	sort.Slice(order, func(i, j int) bool {
		if ai, aj := d.atimes[order[i]], d.atimes[order[j]]; ai != aj {
			return ai < aj
		}
		return order[i] < order[j]
	})
	for _, name := range order {
		if total <= d.cap {
			break
		}
		total -= d.sizes[name]
		d.dropLocked(name)
		d.evictions++
	}
}

// Stats returns live entry count, resident value bytes, cap, and
// cumulative eviction/corruption counters.
func (d *Disk) Stats() (entries int, bytes, capBytes int64, evictions, corrupt uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sz := range d.sizes {
		bytes += sz
	}
	return len(d.sizes), bytes, d.cap, d.evictions, d.corrupt
}

// Close releases nothing: the disk tier holds no file open between calls.
func (d *Disk) Close() error { return nil }

// WriteFileAtomic writes path crash-safely: temp file in the same
// directory, write, fsync, rename over the target, fsync the directory so
// the rename itself is durable. Sealed files and the server journal's
// compaction write through it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("rescache: create temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("rescache: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("rescache: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("rescache: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rescache: rename into place: %w", err)
	}
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}
