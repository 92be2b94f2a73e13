package rescache

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Disk layout under the CAS root:
//
//	format              — layout/format tag; mismatch clears the cache
//	blobs/sha256/<hex>  — blob bytes, named by their own sha256
//	keys/sha256/<hex>   — key links: "sha256:<blob digest>\n" per cache key
//	atime.log           — access journal: "<unixnano> <blob digest>\n"
//
// Blobs are content-addressed, so a read can re-verify integrity by
// re-hashing the bytes against the filename — a flipped bit is detected,
// the blob and its key links evicted, and the caller recomputes. Several
// keys may link to one blob (dedup for identical artifacts). Writes are
// crash-safe: temp file in the target directory, write, fsync, rename,
// fsync the directory; a crash leaves either the old state or the new
// state, never a torn blob, and leftover tmp-* files are swept at Open.
//
// Eviction is LRU by the atime journal: every Get appends an access
// record; when resident bytes exceed the cap, the coldest blobs (and any
// key links pointing at them) are removed until under cap. The journal is
// compacted — rewritten as one record per live blob — when it grows past
// compactLogFactor times the blob count, and on Close.

const (
	blobPrefix = "sha256:"
	// compactLogFactor bounds journal growth: compact when the journal holds
	// more than this many records per live blob.
	compactLogFactor = 8
)

// Disk is the persistent CAS tier. All methods are safe for concurrent
// use; a single mutex serializes metadata (the size and atime maps and the
// journal), which is fine because blob I/O is small compared to the
// simulations being memoized.
type Disk struct {
	root   string
	cap    int64
	format string

	mu     sync.Mutex
	sizes  map[string]int64 // live blobs: digest → byte size
	atimes map[string]int64 // digest → last access (unix nanos, logical clock)
	clock  int64            // monotonic logical time for atime ordering
	logF   *os.File         // open atime journal, append mode
	logN   int              // records written since last compaction

	evictions uint64
	corrupt   uint64
}

// OpenDisk attaches to (or initializes) the CAS rooted at dir. A directory
// written under a different format tag is cleared; a non-empty directory
// that is not a CAS at all (no format file, but has other content) is
// refused rather than clobbered.
func OpenDisk(dir string, capBytes int64, format string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: create cache dir: %w", err)
	}
	fPath := filepath.Join(dir, "format")
	have, err := os.ReadFile(fPath)
	switch {
	case err == nil:
		if strings.TrimSpace(string(have)) != format {
			if err := clearCAS(dir); err != nil {
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
	for _, sub := range []string{filepath.Join("blobs", "sha256"), filepath.Join("keys", "sha256")} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("rescache: create %s: %w", sub, err)
		}
	}

	d := &Disk{
		root:   dir,
		cap:    capBytes,
		format: format,
		sizes:  map[string]int64{},
		atimes: map[string]int64{},
	}
	if err := d.scan(); err != nil {
		return nil, err
	}
	if err := d.replayJournal(); err != nil {
		return nil, err
	}
	logF, err := os.OpenFile(d.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rescache: open atime journal: %w", err)
	}
	d.logF = logF
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.logN > compactLogFactor*(len(d.sizes)+1) {
		d.compactLocked()
	}
	d.sweepLocked()
	return d, nil
}

// clearCAS removes the cache-owned entries under dir, leaving the
// directory itself (the caller may not own it).
func clearCAS(dir string) error {
	for _, name := range []string{"blobs", "keys", "atime.log", "format"} {
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("rescache: clear stale cache: %w", err)
		}
	}
	return nil
}

// scan inventories live blobs, sweeps crashed temp files, and drops key
// links whose blob no longer exists.
func (d *Disk) scan() error {
	blobDir := d.blobDir()
	entries, err := os.ReadDir(blobDir)
	if err != nil {
		return fmt.Errorf("rescache: scan blobs: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(blobDir, name))
			continue
		}
		if !isHexDigest(name) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		d.sizes[name] = info.Size()
		d.atimes[name] = 0 // journal replay refines this
	}
	keyDir := d.keyDir()
	kents, err := os.ReadDir(keyDir)
	if err != nil {
		return fmt.Errorf("rescache: scan keys: %w", err)
	}
	for _, e := range kents {
		name := e.Name()
		path := filepath.Join(keyDir, name)
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(path)
			continue
		}
		digest, ok := d.readLink(path)
		if !ok {
			os.Remove(path)
			continue
		}
		if _, live := d.sizes[digest]; !live {
			os.Remove(path)
		}
	}
	return nil
}

// replayJournal restores blob recency from the atime log. Records for dead
// blobs are skipped; malformed lines are ignored (the journal is advisory
// — losing it only degrades eviction ordering, never correctness).
func (d *Disk) replayJournal() error {
	f, err := os.Open(d.logPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("rescache: open atime journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		d.logN++
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		ts, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			continue
		}
		if _, live := d.sizes[fields[1]]; live {
			d.atimes[fields[1]] = ts
			if ts > d.clock {
				d.clock = ts
			}
		}
	}
	return nil // scanner errors degrade to partial replay, same as truncation
}

func (d *Disk) blobDir() string { return filepath.Join(d.root, "blobs", "sha256") }
func (d *Disk) keyDir() string  { return filepath.Join(d.root, "keys", "sha256") }
func (d *Disk) logPath() string { return filepath.Join(d.root, "atime.log") }

// normKey maps an arbitrary cache key onto a fixed-width hex filename. The
// server's config hashes are already 64-hex sha256 strings and pass
// through unchanged, so CAS key files line up with artifact config hashes;
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

// readLink parses a key-link file; ok is false when the content is not a
// well-formed "sha256:<hex>" reference.
func (d *Disk) readLink(path string) (digest string, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	s := strings.TrimSpace(string(b))
	if !strings.HasPrefix(s, blobPrefix) {
		return "", false
	}
	digest = strings.TrimPrefix(s, blobPrefix)
	return digest, isHexDigest(digest)
}

// Get returns the blob linked from key after re-verifying its content hash
// against its filename. Corruption — a dangling or malformed link, or blob
// bytes that no longer hash to the blob's name — evicts the offending
// entries and misses, so the caller recomputes instead of consuming a
// damaged artifact.
func (d *Disk) Get(key string) ([]byte, bool) {
	kpath := filepath.Join(d.keyDir(), normKey(key))
	digest, ok := d.readLink(kpath)
	if !ok {
		if _, err := os.Stat(kpath); err == nil {
			// The link exists but is malformed — evict it.
			d.mu.Lock()
			d.corrupt++
			d.mu.Unlock()
			os.Remove(kpath)
		}
		return nil, false
	}
	blob, err := os.ReadFile(filepath.Join(d.blobDir(), digest))
	if err != nil {
		os.Remove(kpath)
		return nil, false
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != digest {
		d.mu.Lock()
		d.corrupt++
		delete(d.sizes, digest)
		delete(d.atimes, digest)
		d.mu.Unlock()
		os.Remove(filepath.Join(d.blobDir(), digest))
		os.Remove(kpath)
		return nil, false
	}
	d.mu.Lock()
	d.touchLocked(digest)
	d.mu.Unlock()
	return blob, true
}

// Put stores blob content-addressed and links key to it, then sweeps if
// over cap. Storing an already-present blob only adds the key link.
func (d *Disk) Put(key string, blob []byte) error {
	sum := sha256.Sum256(blob)
	digest := hex.EncodeToString(sum[:])

	d.mu.Lock()
	_, have := d.sizes[digest]
	d.mu.Unlock()
	if !have {
		if err := WriteFileAtomic(filepath.Join(d.blobDir(), digest), blob); err != nil {
			return err
		}
	}
	if err := WriteFileAtomic(filepath.Join(d.keyDir(), normKey(key)), []byte(blobPrefix+digest+"\n")); err != nil {
		return err
	}
	d.mu.Lock()
	d.sizes[digest] = int64(len(blob))
	d.touchLocked(digest)
	d.sweepLocked()
	d.mu.Unlock()
	return nil
}

// touchLocked stamps digest as most recently used and journals the access.
// The clock is logical (monotonic per process, seeded from the replayed
// journal) so recency ordering never depends on wall-clock sanity.
func (d *Disk) touchLocked(digest string) {
	d.clock++
	d.atimes[digest] = d.clock
	if d.logF != nil {
		fmt.Fprintf(d.logF, "%d %s\n", d.clock, digest)
		d.logN++
		if d.logN > compactLogFactor*(len(d.sizes)+1) {
			d.compactLocked()
		}
	}
}

// sweepLocked evicts least-recently-used blobs until resident bytes fit
// the cap, then prunes key links left dangling by the evictions.
func (d *Disk) sweepLocked() {
	var total int64
	for _, sz := range d.sizes {
		total += sz
	}
	if total <= d.cap {
		return
	}
	type ent struct {
		digest string
		atime  int64
	}
	order := make([]ent, 0, len(d.sizes))
	for digest := range d.sizes {
		order = append(order, ent{digest, d.atimes[digest]})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].atime != order[j].atime {
			return order[i].atime < order[j].atime
		}
		return order[i].digest < order[j].digest
	})
	dropped := map[string]bool{}
	for _, e := range order {
		if total <= d.cap {
			break
		}
		os.Remove(filepath.Join(d.blobDir(), e.digest))
		total -= d.sizes[e.digest]
		delete(d.sizes, e.digest)
		delete(d.atimes, e.digest)
		dropped[e.digest] = true
		d.evictions++
	}
	if len(dropped) == 0 {
		return
	}
	if kents, err := os.ReadDir(d.keyDir()); err == nil {
		for _, ke := range kents {
			path := filepath.Join(d.keyDir(), ke.Name())
			if digest, ok := d.readLink(path); ok && dropped[digest] {
				os.Remove(path)
			}
		}
	}
}

// compactLocked rewrites the journal as one record per live blob, bounding
// its size. Best-effort: on any failure the old journal stays in place.
func (d *Disk) compactLocked() {
	var buf strings.Builder
	for digest, at := range d.atimes {
		fmt.Fprintf(&buf, "%d %s\n", at, digest)
	}
	if err := WriteFileAtomic(d.logPath(), []byte(buf.String())); err != nil {
		return
	}
	if d.logF != nil {
		d.logF.Close()
	}
	logF, err := os.OpenFile(d.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		d.logF = nil
		return
	}
	d.logF = logF
	d.logN = len(d.atimes)
}

// Stats returns live blob count, resident bytes, cap, and cumulative
// eviction/corruption counters.
func (d *Disk) Stats() (entries int, bytes, capBytes int64, evictions, corrupt uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sz := range d.sizes {
		bytes += sz
	}
	return len(d.sizes), bytes, d.cap, d.evictions, d.corrupt
}

// Close compacts and releases the journal.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.compactLocked()
	if d.logF != nil {
		err := d.logF.Close()
		d.logF = nil
		return err
	}
	return nil
}

// WriteFileAtomic writes path crash-safely: temp file in the same
// directory, write, fsync, rename over the target, fsync the directory so
// the rename itself is durable. The CAS and the server journal write
// through it.
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
