// Package rescache is the result cache: a two-tier memoization layer that
// lets the service stack (and the sweep CLI) skip re-running a
// simulation whose artifact it has already computed. The determinism
// contract makes this sound — a job's canonical artifact is a pure
// function of its normalized spec, so the sha256 of the artifact's config
// map (internal/report's config hash, with execution knobs excluded and
// the trace digest folded in for uploads) is a perfect cache key. A key's
// bytes never change, so the cache holds results only: state that changes
// while a job runs, such as its checkpoints, lives elsewhere.
//
// Tier one is an in-memory LRU of hot artifact bytes under a configurable
// byte budget (Memory). Tier two is a crash-safe disk tier (Disk): one
// sealed file per key at entries/<key>, holding the value's sha256 and then
// the value; every read re-hashes the value and evicts corruption, a
// re-put replaces the file, and a size-capped eviction sweep drops the
// least-recently used entries, recency kept on the entry files' mtimes.
// Nothing else depends on the cache: losing any entry costs a recompute
// and nothing else. Cache ties the tiers
// together behind one Get/Put/Do surface, with singleflight deduplication
// in Do so N concurrent identical computations run once.
//
// Accounting contract (what /metrics renders): Get counts hits only —
// every artifact served from a tier, with its bytes. Do classifies the
// rest exactly once per call: a leader that actually computes counts a
// miss; a follower that rides an in-flight identical computation counts a
// dedup. One submission therefore increments exactly one of
// hits/misses/dedups.
package rescache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cache8t/internal/report"
)

// Tier names the cache level that served a hit.
type Tier string

// Cache tiers.
const (
	TierMemory Tier = "memory"
	TierDisk   Tier = "disk"
)

// ArtifactFormat is the disk tier's format tag: its layout version, and
// report.SchemaVersion, so a layout change or a schema bump invalidates —
// clears — any cache directory written by an older build instead of
// serving entries the new build could not have produced.
func ArtifactFormat() string {
	return fmt.Sprintf("cache8t-rescache-2-artifact-schema-%d", report.SchemaVersion)
}

// Config tunes a Cache. The zero value is a memory-only cache with a
// 64 MiB budget.
type Config struct {
	// Dir roots the disk tier ("" = no disk tier).
	Dir string
	// MemBytes budgets the in-memory LRU (<= 0: 64 MiB).
	MemBytes int64
	// DiskBytes caps the disk tier (<= 0: 1 GiB). Exceeding it triggers an
	// LRU eviction sweep.
	DiskBytes int64
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MemBytes <= 0 {
		c.MemBytes = 64 << 20
	}
	if c.DiskBytes <= 0 {
		c.DiskBytes = 1 << 30
	}
	return c
}

// Cache is the two-tier result cache: an in-memory LRU in front of an
// optional disk tier, plus singleflight deduplication for in-flight
// computations. All methods are safe for concurrent use.
type Cache struct {
	mem  *Memory
	disk *Disk
	dir  string

	mu    sync.Mutex
	calls map[string]*call

	memHits     atomic.Uint64
	diskHits    atomic.Uint64
	misses      atomic.Uint64
	dedups      atomic.Uint64
	bytesServed atomic.Uint64
	putErrors   atomic.Uint64
}

// call is one in-flight computation other callers can wait on.
type call struct {
	done chan struct{}
	blob []byte
	err  error
}

// errAborted marks a computation that ended without assigning a result —
// the leader panicked out of compute. Followers treat it like a cancelled
// leader and retry.
var errAborted = errors.New("rescache: in-flight computation aborted")

// Open builds a Cache from cfg, initializing (or re-attaching to) the disk
// tier when cfg.Dir is set.
func Open(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	c := &Cache{
		mem:   NewMemory(cfg.MemBytes),
		dir:   cfg.Dir,
		calls: map[string]*call{},
	}
	if cfg.Dir != "" {
		d, err := OpenDisk(cfg.Dir, cfg.DiskBytes)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// Get returns the blob stored under key and the tier that served it. Disk
// hits are promoted into the memory tier. Callers must not mutate the
// returned bytes. Only hits are counted; Do accounts for misses.
func (c *Cache) Get(key string) ([]byte, Tier, bool) {
	if blob, ok := c.mem.Get(key); ok {
		c.memHits.Add(1)
		c.bytesServed.Add(uint64(len(blob)))
		return blob, TierMemory, true
	}
	if c.disk != nil {
		if blob, ok := c.disk.Get(key); ok {
			c.mem.Put(key, blob)
			c.diskHits.Add(1)
			c.bytesServed.Add(uint64(len(blob)))
			return blob, TierDisk, true
		}
	}
	return nil, "", false
}

// Put stores blob under key in both tiers. Disk write failures are counted
// (Snapshot.PutErrors) but not returned: a cache that cannot persist still
// serves from memory, and the caller's result is already in hand.
func (c *Cache) Put(key string, blob []byte) {
	c.mem.Put(key, blob)
	if c.disk != nil {
		if err := c.disk.Put(key, blob); err != nil {
			c.putErrors.Add(1)
		}
	}
}

// Do returns the blob for key, computing it at most once across concurrent
// callers: a tier hit returns immediately (cached true); an in-flight
// identical computation is joined and its result shared (cached true); and
// otherwise this caller is the leader — it runs compute, stores the result
// in both tiers, and returns it (cached false).
//
// compute runs under the leader's own lifetime: if a leader is cancelled
// (its compute returns the leader's context error) or panics out, waiting
// followers retry — re-checking the tiers and electing a new leader — so
// one cancelled client never fails an identical concurrent job. A leader's
// genuine computation error propagates to every waiter. ctx bounds only
// this caller's wait, never another caller's computation.
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) (blob []byte, cached bool, err error) {
	for {
		if blob, _, ok := c.Get(key); ok {
			return blob, true, nil
		}
		c.mu.Lock()
		if cl, ok := c.calls[key]; ok {
			c.mu.Unlock()
			select {
			case <-cl.done:
				if cl.err == nil {
					c.dedups.Add(1)
					c.bytesServed.Add(uint64(len(cl.blob)))
					return cl.blob, true, nil
				}
				if ctx.Err() != nil {
					return nil, false, ctx.Err()
				}
				if errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, errAborted) {
					continue // the leader died, not the computation; take over
				}
				return nil, false, cl.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		// Re-check the tiers under the lock: a leader stores its result
		// before it releases its call, so one that finished since the check
		// above is in a tier now, not recomputed.
		if blob, _, ok := c.Get(key); ok {
			c.mu.Unlock()
			return blob, true, nil
		}
		cl := &call{done: make(chan struct{}), err: errAborted}
		c.calls[key] = cl
		c.mu.Unlock()

		c.misses.Add(1)
		func() {
			// The deferred cleanup runs even when compute panics (cl.err then
			// keeps errAborted), so waiters are always released and a
			// contained panic never wedges the key.
			defer func() {
				c.mu.Lock()
				delete(c.calls, key)
				c.mu.Unlock()
				close(cl.done)
			}()
			cl.blob, cl.err = compute()
			if cl.err == nil {
				// Store before releasing the call, so no caller can miss
				// both the tiers and the call and compute again.
				c.Put(key, cl.blob)
			}
		}()
		if cl.err != nil {
			return nil, false, cl.err
		}
		return cl.blob, false, nil
	}
}

// Snapshot is a point-in-time view of the cache's counters and per-tier
// occupancy, rendered by the daemon's /metrics.
type Snapshot struct {
	// MemHits/DiskHits count artifacts served from a tier; Misses counts
	// leader computations; Dedups counts followers that shared an in-flight
	// computation. BytesServed sums the bytes of every hit and dedup.
	MemHits     uint64
	DiskHits    uint64
	Misses      uint64
	Dedups      uint64
	BytesServed uint64
	// PutErrors counts disk-tier writes that failed (memory still served).
	PutErrors uint64

	// Per-tier occupancy and churn.
	MemEntries   int
	MemBytes     int64
	MemCapBytes  int64
	MemEvictions uint64
	// DiskEntries counts keys on disk, one file each, and DiskBytes sums
	// their values.
	DiskEntries  int
	DiskBytes    int64
	DiskCapBytes int64
	// DiskEvictions counts entries dropped by the size-cap sweep;
	// DiskCorrupt counts entries rejected by integrity re-verification.
	DiskEvictions uint64
	DiskCorrupt   uint64

	// Dir is the disk tier's root ("" when the disk tier is off).
	Dir string
}

// Hits sums the per-tier hit counters.
func (s Snapshot) Hits() uint64 { return s.MemHits + s.DiskHits }

// Snapshot captures the current counters and occupancy.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{
		MemHits:     c.memHits.Load(),
		DiskHits:    c.diskHits.Load(),
		Misses:      c.misses.Load(),
		Dedups:      c.dedups.Load(),
		BytesServed: c.bytesServed.Load(),
		PutErrors:   c.putErrors.Load(),
		Dir:         c.dir,
	}
	s.MemEntries, s.MemBytes, s.MemCapBytes, s.MemEvictions = c.mem.Stats()
	if c.disk != nil {
		s.DiskEntries, s.DiskBytes, s.DiskCapBytes, s.DiskEvictions, s.DiskCorrupt = c.disk.Stats()
	}
	return s
}

// Close releases the cache. Neither tier holds a handle between calls, so
// there is nothing to release; callers still close what they open.
func (c *Cache) Close() error { return nil }
