package rescache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cache8t/internal/report"
)

func hexKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestMemoryTierHit(t *testing.T) {
	c := mustOpen(t, Config{})
	key := hexKey("k1")
	blob := []byte("artifact-bytes")

	if _, _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key, blob)
	got, tier, ok := c.Get(key)
	if !ok || tier != TierMemory {
		t.Fatalf("Get = (%v, %q), want memory hit", ok, tier)
	}
	if string(got) != string(blob) {
		t.Fatalf("blob mismatch: %q", got)
	}
	s := c.Snapshot()
	if s.MemHits != 1 || s.DiskHits != 0 || s.BytesServed != uint64(len(blob)) {
		t.Fatalf("snapshot %+v: want 1 mem hit, %d bytes served", s, len(blob))
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(100)
	a, b, cKey := hexKey("a"), hexKey("b"), hexKey("c")
	m.Put(a, make([]byte, 40))
	m.Put(b, make([]byte, 40))
	m.Get(a) // refresh a: b is now coldest
	m.Put(cKey, make([]byte, 40))

	if _, ok := m.Get(b); ok {
		t.Fatal("coldest entry b survived eviction")
	}
	if _, ok := m.Get(a); !ok {
		t.Fatal("recently-used entry a was evicted")
	}
	if _, ok := m.Get(cKey); !ok {
		t.Fatal("newest entry c was evicted")
	}
	entries, bytes, capBytes, evictions := m.Stats()
	if entries != 2 || bytes != 80 || capBytes != 100 || evictions != 1 {
		t.Fatalf("stats = (%d, %d, %d, %d), want (2, 80, 100, 1)", entries, bytes, capBytes, evictions)
	}
}

func TestMemoryOversizedBlobNotCached(t *testing.T) {
	m := NewMemory(10)
	m.Put(hexKey("big"), make([]byte, 11))
	if entries, bytes, _, _ := statsEB(m); entries != 0 || bytes != 0 {
		t.Fatalf("oversized blob was cached: %d entries, %d bytes", entries, bytes)
	}
}

func statsEB(m *Memory) (int, int64, int64, uint64) { return m.Stats() }

func TestDiskRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("spec")
	blob := []byte(`{"metric": 1}` + "\n")

	c1 := mustOpen(t, Config{Dir: dir})
	c1.Put(key, blob)
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh cache over the same dir serves the blob from disk.
	c2 := mustOpen(t, Config{Dir: dir})
	got, tier, ok := c2.Get(key)
	if !ok || tier != TierDisk {
		t.Fatalf("Get after reopen = (%v, %q), want disk hit", ok, tier)
	}
	if string(got) != string(blob) {
		t.Fatalf("blob mismatch after reopen: %q", got)
	}
	// The disk hit promoted the blob to memory.
	if _, tier, ok := c2.Get(key); !ok || tier != TierMemory {
		t.Fatalf("second Get = (%v, %q), want promoted memory hit", ok, tier)
	}
	if got, err := ReadSealed(filepath.Join(dir, "entries", key)); err != nil || string(got) != string(blob) {
		t.Fatalf("entry file under the key = (%q, %v), want the sealed blob", got, err)
	}
}

// TestDiskRePutReplacesEntry pins one entry per key: re-putting a key
// replaces its file, so 15 different values leave one entry holding the
// last one, on disk and across a reopen.
func TestDiskRePutReplacesEntry(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("checkpointed")
	c1 := mustOpen(t, Config{Dir: dir, MemBytes: 1})
	var last []byte
	for i := 0; i < 15; i++ {
		last = []byte(strings.Repeat(fmt.Sprint(i), 100+i))
		c1.Put(key, last)
	}
	if s := c1.Snapshot(); s.DiskEntries != 1 || s.DiskBytes != int64(len(last)) {
		t.Fatalf("after 15 puts: DiskEntries = %d, DiskBytes = %d; want 1 and %d", s.DiskEntries, s.DiskBytes, len(last))
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "entries")); err != nil || len(ents) != 1 {
		t.Fatalf("entries dir holds %d files (err %v), want 1", len(ents), err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, Config{Dir: dir, MemBytes: 1})
	if got, _, ok := c2.Get(key); !ok || string(got) != string(last) {
		t.Fatalf("after reopen: Get = (%d bytes, %v), want the last value", len(got), ok)
	}
}

func TestDiskCorruptBlobEvicted(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("victim")
	blob := []byte("precious artifact bytes")
	c := mustOpen(t, Config{Dir: dir, MemBytes: 1}) // tiny memory: force the disk path
	c.Put(key, blob)

	entryPath := filepath.Join(dir, "entries", key)
	raw, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	raw[len(raw)-1] ^= 0x01 // flip one bit of the value
	if err := os.WriteFile(entryPath, raw, 0o644); err != nil {
		t.Fatalf("corrupt entry: %v", err)
	}

	if _, _, ok := c.Get(key); ok {
		t.Fatal("corrupted blob served as a hit")
	}
	if _, err := os.Stat(entryPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not evicted from disk: %v", err)
	}
	s := c.Snapshot()
	if s.DiskCorrupt != 1 || s.DiskEntries != 0 {
		t.Fatalf("DiskCorrupt = %d, DiskEntries = %d; want 1 and 0", s.DiskCorrupt, s.DiskEntries)
	}

	// The next Do recomputes and re-stores.
	got, cached, err := c.Do(context.Background(), key, func() ([]byte, error) { return blob, nil })
	if err != nil || cached {
		t.Fatalf("Do after corruption = (cached=%v, err=%v), want fresh compute", cached, err)
	}
	if string(got) != string(blob) {
		t.Fatalf("recomputed blob mismatch: %q", got)
	}
	if _, err := ReadSealed(entryPath); err != nil {
		t.Fatalf("recomputed blob not re-stored: %v", err)
	}
}

// TestDiskTruncatedEntryEvicted cuts an entry file short of its sealed
// sha256: the read rejects it, evicts it and counts it as corrupt.
func TestDiskTruncatedEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("truncated")
	c := mustOpen(t, Config{Dir: dir, MemBytes: 1})
	c.Put(key, []byte("payload"))

	path := filepath.Join(dir, "entries", key)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatalf("truncate entry: %v", err)
	}
	if _, _, ok := c.Get(key); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated entry not removed: %v", err)
	}
	if s := c.Snapshot(); s.DiskCorrupt != 1 {
		t.Fatalf("DiskCorrupt = %d, want 1", s.DiskCorrupt)
	}
}

func TestDiskEvictionSweepLRU(t *testing.T) {
	dir := t.TempDir()
	// Cap fits two 100-byte blobs but not three.
	c := mustOpen(t, Config{Dir: dir, DiskBytes: 250, MemBytes: 1})
	keys := []string{hexKey("e1"), hexKey("e2"), hexKey("e3")}
	for i, k := range keys {
		c.Put(k, []byte(strings.Repeat(fmt.Sprint(i), 100)))
	}
	// e1 was touched least recently — it must be the one swept.
	if _, _, ok := c.Get(keys[0]); ok {
		t.Fatal("LRU blob survived the eviction sweep")
	}
	for _, k := range keys[1:] {
		if _, _, ok := c.Get(k); !ok {
			t.Fatalf("recently-written blob %s was evicted", k[:8])
		}
	}
	s := c.Snapshot()
	if s.DiskEvictions == 0 {
		t.Fatal("sweep ran but DiskEvictions is 0")
	}
	if s.DiskBytes > 250 {
		t.Fatalf("DiskBytes = %d, want <= cap 250", s.DiskBytes)
	}
}

// TestDiskRefusesOversizedValue: a value larger than the whole cap is not
// stored, and the entries already resident stay.
func TestDiskRefusesOversizedValue(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 250)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	keys := []string{hexKey("o1"), hexKey("o2"), hexKey("o3")}
	for i, size := range []int{100, 100, 300} {
		if err := d.Put(keys[i], []byte(strings.Repeat(fmt.Sprint(i), size))); err != nil {
			t.Fatalf("Put %d bytes: %v", size, err)
		}
	}
	if entries, resident, _, evictions, _ := d.Stats(); entries != 2 || resident != 200 || evictions != 0 {
		t.Fatalf("after an oversized put: %d entries, %d bytes, %d evictions; want 2, 200, 0", entries, resident, evictions)
	}
	if _, ok := d.Get(keys[2]); ok {
		t.Fatal("the oversized value was served")
	}
	for _, k := range keys[:2] {
		if _, ok := d.Get(k); !ok {
			t.Fatalf("entry %s was lost to the oversized put", k[:8])
		}
	}
}

func TestDiskRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	keys := []string{hexKey("r1"), hexKey("r2"), hexKey("r3")}
	c1 := mustOpen(t, Config{Dir: dir, DiskBytes: 1 << 20, MemBytes: 1})
	for i, k := range keys {
		c1.Put(k, []byte(strings.Repeat(fmt.Sprint(i), 100)))
	}
	c1.Get(keys[0]) // r1 becomes hottest
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with a cap that forces one eviction: the journal must have
	// preserved that r1 is hot, so r2 (the coldest) goes.
	c2 := mustOpen(t, Config{Dir: dir, DiskBytes: 250, MemBytes: 1})
	if _, _, ok := c2.Get(keys[1]); ok {
		t.Fatal("coldest blob r2 survived the reopen sweep")
	}
	if _, _, ok := c2.Get(keys[0]); !ok {
		t.Fatal("hottest blob r1 was evicted despite journaled recency")
	}
}

// TestFormatMismatchClearsCache is the upgrade path from the
// content-addressed layout: a directory tagged with the format-1 tag and
// holding a format-1 blob and key link is cleared once, and the key misses.
func TestFormatMismatchClearsCache(t *testing.T) {
	dir := t.TempDir()
	key := hexKey("old")
	blob := []byte("old-format artifact")
	sum := sha256.Sum256(blob)
	digest := hex.EncodeToString(sum[:])
	old := fmt.Sprintf("cache8t-rescache-1-artifact-schema-%d", report.SchemaVersion)
	blobPath := filepath.Join(dir, "blobs", "sha256", digest)
	linkPath := filepath.Join(dir, "keys", "sha256", key)
	for path, data := range map[string]string{
		filepath.Join(dir, "format"): old + "\n",
		blobPath:                     string(blob),
		linkPath:                     "sha256:" + digest + "\n",
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c := mustOpen(t, Config{Dir: dir})
	if _, _, ok := c.Get(key); ok {
		t.Fatal("artifact written under the old format tag survived")
	}
	for _, sub := range []string{"blobs", "keys"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); !os.IsNotExist(err) {
			t.Fatalf("old-layout %s/ survived the format change: %v", sub, err)
		}
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "format")); strings.TrimSpace(string(got)) != ArtifactFormat() {
		t.Fatalf("format file = %q, want %q", got, ArtifactFormat())
	}
}

func TestRefusesForeignDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "precious.txt"), []byte("user data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open clobbered a non-empty directory with no format file")
	}
	if _, err := os.Stat(filepath.Join(dir, "precious.txt")); err != nil {
		t.Fatalf("foreign file damaged: %v", err)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := mustOpen(t, Config{})
	key := hexKey("flight")
	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob, _, err := c.Do(context.Background(), key, func() ([]byte, error) {
				if computes.Add(1) == 1 {
					close(started)
				}
				<-release
				return []byte("the one result"), nil
			})
			results[i], errs[i] = blob, err
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if string(results[i]) != "the one result" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
	}
	s := c.Snapshot()
	if s.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", s.Misses)
	}
	if got := s.Hits() + s.Dedups; got != waiters-1 {
		t.Fatalf("hits+dedups = %d, want %d", got, waiters-1)
	}
}

func TestDoLeaderCancelledFollowerTakesOver(t *testing.T) {
	c := mustOpen(t, Config{})
	key := hexKey("takeover")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, key, func() ([]byte, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		leaderDone <- err
	}()
	<-leaderIn

	followerDone := make(chan struct{})
	var fBlob []byte
	var fErr error
	go func() {
		defer close(followerDone)
		fBlob, _, fErr = c.Do(context.Background(), key, func() ([]byte, error) {
			return []byte("follower result"), nil
		})
	}()

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	<-followerDone
	if fErr != nil {
		t.Fatalf("follower err = %v, want takeover success", fErr)
	}
	if string(fBlob) != "follower result" {
		t.Fatalf("follower blob = %q", fBlob)
	}
}

func TestDoComputeErrorPropagatesAndIsNotCached(t *testing.T) {
	c := mustOpen(t, Config{})
	key := hexKey("boom")
	wantErr := errors.New("simulation exploded")
	if _, _, err := c.Do(context.Background(), key, func() ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Do err = %v, want %v", err, wantErr)
	}
	if _, _, ok := c.Get(key); ok {
		t.Fatal("failed computation was cached")
	}
	// A later Do recomputes successfully.
	blob, cached, err := c.Do(context.Background(), key, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || cached || string(blob) != "ok" {
		t.Fatalf("retry Do = (%q, cached=%v, err=%v)", blob, cached, err)
	}
}

func TestDoLeaderPanicReleasesFollowers(t *testing.T) {
	c := mustOpen(t, Config{})
	key := hexKey("panic")

	leaderIn := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), key, func() ([]byte, error) {
			close(leaderIn)
			panic("contained engine panic")
		})
	}()
	<-leaderIn

	// The follower must not hang: it either retries into leadership or
	// joins after cleanup; both end in success.
	blob, _, err := c.Do(context.Background(), key, func() ([]byte, error) {
		return []byte("recovered"), nil
	})
	if err != nil {
		t.Fatalf("follower after leader panic: %v", err)
	}
	if string(blob) != "recovered" {
		t.Fatalf("follower blob = %q", blob)
	}
}

// TestPutErrorsCountedNotFatal makes the disk write fail by replacing
// entries/ with a plain file (ENOTDIR, which holds for root too): the put
// is counted as an error and the value is still served from memory.
func TestPutErrorsCountedNotFatal(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Config{Dir: dir})
	entryDir := filepath.Join(dir, "entries")
	if err := os.Remove(entryDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := hexKey("unwritable")
	c.Put(key, []byte("still served from memory"))
	if _, tier, ok := c.Get(key); !ok || tier != TierMemory {
		t.Fatalf("memory tier lost the blob after a disk put failure (ok=%v tier=%q)", ok, tier)
	}
	if s := c.Snapshot(); s.PutErrors != 1 {
		t.Fatalf("PutErrors = %d, want 1", s.PutErrors)
	}
}

// TestDiskKeepsNoSideFiles pins the disk tier's layout: after Put, Get and
// Close the directory holds only format and entries/, recency lives on the
// entries' mtimes, and a leftover access log of an older build is left
// alone and never read.
func TestDiskKeepsNoSideFiles(t *testing.T) {
	dir := t.TempDir()
	keys := []string{hexKey("s1"), hexKey("s2")}
	c1 := mustOpen(t, Config{Dir: dir, MemBytes: 1})
	for _, k := range keys {
		c1.Put(k, []byte(strings.Repeat("x", 100)))
	}
	c1.Get(keys[0]) // s1 becomes hottest
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "entries format" {
		t.Fatalf("cache dir holds %v, want only entries and format", names)
	}

	// A stale log that calls s2 the hottest entry does not override the
	// mtimes: a reopen that must evict one entry evicts s2.
	stale := fmt.Sprintf("1 %s\n9 %s\n", keys[0], keys[1])
	if err := os.WriteFile(filepath.Join(dir, "atime.log"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, Config{Dir: dir, DiskBytes: 150, MemBytes: 1})
	if _, _, ok := c2.Get(keys[1]); ok {
		t.Fatal("the colder entry s2 survived the reopen sweep")
	}
	if _, _, ok := c2.Get(keys[0]); !ok {
		t.Fatal("the hotter entry s1 was evicted")
	}
	if got, err := os.ReadFile(filepath.Join(dir, "atime.log")); err != nil || string(got) != stale {
		t.Fatalf("leftover atime.log = (%q, %v), want it untouched", got, err)
	}
}

func TestNonHexKeysAreHashed(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Config{Dir: dir, MemBytes: 1})
	key := "regress-check fig8 n=50000" // arbitrary string, not a digest
	c.Put(key, []byte("check result"))
	if blob, _, ok := c.Get(key); !ok || string(blob) != "check result" {
		t.Fatalf("round-trip through non-hex key failed (ok=%v)", ok)
	}
	// The on-disk entry file is named by the sha256 of the key string.
	if _, err := os.Stat(filepath.Join(dir, "entries", hexKey(key))); err != nil {
		t.Fatalf("entry file not stored under hashed name: %v", err)
	}
}

func TestCrashedTempFilesSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	c1 := mustOpen(t, Config{Dir: dir})
	c1.Put(hexKey("x"), []byte("x"))
	c1.Close()
	// Simulate a crash mid-write: a stray temp file beside the entries.
	p := filepath.Join(dir, "entries", "tmp-crashed")
	if err := os.WriteFile(p, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, Config{Dir: dir})
	defer c2.Close()
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("crashed temp file not swept: %v", err)
	}
}
