// Package cache implements the functional set-associative L1 data cache the
// controllers in internal/core operate on: write-allocate, write-back, with
// real line data so silent-write detection and memory-image verification are
// exact rather than statistical.
//
// The cache is purely functional (hits, misses, data movement). How many
// *SRAM array* operations a request costs is the controllers' concern — the
// whole point of the paper is that the same functional request stream can be
// served with very different array traffic.
package cache

import (
	"encoding/binary"
	"fmt"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
)

// Line is one cache block: metadata plus data bytes.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Data  []byte
}

// Stats counts functional cache events.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64
}

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Accesses returns total requests.
func (s Stats) Accesses() uint64 { return s.Hits() + s.Misses() }

// MissRate returns misses / accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// Listener observes the cache's externally visible block traffic: the fills
// and write-backs a next level of the hierarchy would see. Both fire with
// the block's base address; Writeback also carries the victim's data (valid
// only for the duration of the call). Per-miss order is deterministic:
// the victim's Writeback (if dirty) strictly precedes the Fill that evicted
// it. Functional stats are unaffected by whether a listener is attached.
type Listener interface {
	Fill(blockAddr uint64)
	Writeback(blockAddr uint64, data []byte)
}

// Config configures a Cache.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	Policy     PolicyKind
	// Seed feeds the Random replacement policy; ignored by others.
	Seed uint64
	// NoWriteAllocate makes write misses bypass the cache (write-around to
	// memory) instead of filling a line. The paper's baseline allocates;
	// this knob drives the allocation-policy sensitivity experiment.
	NoWriteAllocate bool
}

// DefaultConfig is the paper's baseline: 64 KB, 4-way, 32 B blocks, LRU.
func DefaultConfig() Config {
	return Config{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 32, Policy: LRU}
}

// Cache is a set-associative, write-back data cache backed by a shadow
// memory; write-allocate by default, write-around when Config.NoWriteAllocate
// is set.
type Cache struct {
	geom     Geometry
	sets     [][]Line
	policies []policy
	// rand is the RNG shared by every set's Random replacement policy
	// (unused by the deterministic policies). Retained so checkpointing can
	// capture and restore its state.
	rand     *rng.Xoshiro256
	backing  *mem.Memory
	stats    Stats
	noAlloc  bool
	listener Listener
}

// SetListener attaches (or, with nil, detaches) the block-traffic observer.
// At most one listener is supported; internal/hier uses it to drive an L2.
func (c *Cache) SetListener(l Listener) { c.listener = l }

// New builds a cache over backing memory.
func New(cfg Config, backing *mem.Memory) (*Cache, error) {
	geom, err := NewGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	if backing == nil {
		return nil, fmt.Errorf("cache: nil backing memory")
	}
	r := rng.New(cfg.Seed)
	c := &Cache{
		geom:     geom,
		sets:     make([][]Line, geom.Sets),
		policies: make([]policy, geom.Sets),
		rand:     r,
		backing:  backing,
		noAlloc:  cfg.NoWriteAllocate,
	}
	data := make([]byte, geom.Sets*geom.Ways*geom.BlockBytes)
	for s := range c.sets {
		ways := make([]Line, geom.Ways)
		for w := range ways {
			ways[w].Data, data = data[:geom.BlockBytes], data[geom.BlockBytes:]
		}
		c.sets[s] = ways
		c.policies[s] = newPolicy(cfg.Policy, geom.Ways, r)
	}
	return c, nil
}

// Geometry returns the cache shape.
func (c *Cache) Geometry() Geometry { return c.geom }

// Stats returns a copy of the functional event counters.
func (c *Cache) Stats() Stats { return c.stats }

// RestoreStats replaces the functional event counters, for checkpoint
// restore.
func (c *Cache) RestoreStats(s Stats) { c.stats = s }

// PolicyState returns set s's replacement state as an opaque word slice
// (empty for stateless policies). Paired with RestorePolicyState.
func (c *Cache) PolicyState(s int) []uint32 { return c.policies[s].state() }

// RestorePolicyState replaces set s's replacement state with one captured by
// PolicyState on a cache of the same configuration.
func (c *Cache) RestorePolicyState(s int, st []uint32) error {
	return c.policies[s].restore(st)
}

// RNGState returns the state of the RNG shared by the Random replacement
// policy. Paired with RestoreRNGState.
func (c *Cache) RNGState() [4]uint64 { return c.rand.State() }

// RestoreRNGState replaces the shared replacement RNG's state.
func (c *Cache) RestoreRNGState(s [4]uint64) { c.rand.Restore(s) }

// Backing returns the cache's backing memory.
func (c *Cache) Backing() *mem.Memory { return c.backing }

// NoWriteAllocate reports whether write misses bypass the cache.
func (c *Cache) NoWriteAllocate() bool { return c.noAlloc }

// WriteAround performs a write-around for a write miss under the
// no-write-allocate policy: the data goes straight to memory and the miss
// is accounted, with no fill and no replacement update. The caller must
// have established via Probe that addr's block is not resident; bytes that
// straddle into a *resident* neighbour block are written into that line so
// the freshest copy stays unique.
func (c *Cache) WriteAround(addr uint64, size uint8, data uint64) {
	c.stats.WriteMisses++
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	for i := 0; i < int(size); i++ {
		b := addr + uint64(i)
		if set, way, hit := c.Probe(b); hit {
			l := &c.sets[set][way]
			off := c.geom.BlockOffset(b)
			if l.Data[off] != buf[i] {
				l.Data[off] = buf[i]
				l.Dirty = true
			}
			continue
		}
		c.backing.StoreByte(b, buf[i])
	}
}

// Probe looks up addr without side effects. It returns the set index, the
// way holding the block (-1 on miss), and whether it hit.
func (c *Cache) Probe(addr uint64) (set, way int, hit bool) {
	set = c.geom.SetIndex(addr)
	tag := c.geom.Tag(addr)
	for w := range c.sets[set] {
		if l := &c.sets[set][w]; l.Valid && l.Tag == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// Ensure makes addr's block resident: on a miss it evicts a victim (writing
// back dirty data) and fills from backing memory. It updates replacement
// state and hit/miss counters according to isWrite. It returns the set, the
// way now holding the block, and whether the request hit.
func (c *Cache) Ensure(addr uint64, isWrite bool) (set, way int, hit bool) {
	set, way, hit = c.Probe(addr)
	switch {
	case hit && isWrite:
		c.stats.WriteHits++
	case hit:
		c.stats.ReadHits++
	case isWrite:
		c.stats.WriteMisses++
	default:
		c.stats.ReadMisses++
	}
	if hit {
		c.policies[set].Touch(way)
		return set, way, true
	}
	way = c.fill(set, c.geom.Tag(addr), c.geom.BlockBase(addr))
	return set, way, false
}

// fill victimizes a way in set and loads the block at base into it.
func (c *Cache) fill(set int, tag, base uint64) int {
	way := -1
	for w := range c.sets[set] {
		if !c.sets[set][w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policies[set].Victim()
		c.evict(set, way)
	}
	l := &c.sets[set][way]
	c.backing.Read(base, l.Data)
	l.Tag = tag
	l.Valid = true
	l.Dirty = false
	c.stats.Fills++
	if c.listener != nil {
		c.listener.Fill(base)
	}
	c.policies[set].Insert(way)
	return way
}

// evict writes back way's line if dirty and invalidates it.
func (c *Cache) evict(set, way int) {
	l := &c.sets[set][way]
	if !l.Valid {
		return
	}
	if l.Dirty {
		base := c.lineBase(set, l.Tag)
		c.backing.Write(base, l.Data)
		c.stats.Writebacks++
		if c.listener != nil {
			c.listener.Writeback(base, l.Data)
		}
	}
	l.Valid = false
	l.Dirty = false
	c.stats.Evictions++
}

// lineBase reconstructs the block base address of a resident line.
func (c *Cache) lineBase(set int, tag uint64) uint64 {
	return tag<<c.geom.tagShift | uint64(set)<<c.geom.blockShift
}

// ReadWord reads size bytes at addr from the resident line (set, way).
// The caller must have established residency via Ensure.
func (c *Cache) ReadWord(set, way int, addr uint64, size uint8) uint64 {
	l := &c.sets[set][way]
	off := c.geom.BlockOffset(addr)
	var buf [8]byte
	n := copy(buf[:size], l.Data[off:])
	if n < int(size) {
		// Access straddles a block boundary; fetch the spill bytes from
		// the next block via backing-consistent path. Workload generators
		// emit aligned accesses, so this path is defensive.
		spill := c.readSpill(addr+uint64(n), int(size)-n)
		copy(buf[n:size], spill)
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *Cache) readSpill(addr uint64, n int) []byte {
	out := make([]byte, n)
	if set, way, hit := c.Probe(addr); hit {
		off := c.geom.BlockOffset(addr)
		copy(out, c.sets[set][way].Data[off:off+n])
		return out
	}
	c.backing.Read(addr, out)
	return out
}

// WriteWord writes the low size bytes of data at addr into the resident line
// (set, way), marking it dirty if the content changed. It reports whether the
// write was silent (stored value identical to the previous content).
func (c *Cache) WriteWord(set, way int, addr uint64, size uint8, data uint64) (silent bool) {
	l := &c.sets[set][way]
	off := c.geom.BlockOffset(addr)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	n := int(size)
	if off+n > len(l.Data) {
		// Straddling store: write the spill through to backing memory so
		// the architectural image stays exact. Defensive; see ReadWord.
		spill := n - (len(l.Data) - off)
		c.writeSpill(addr+uint64(n-spill), buf[n-spill:n])
		n -= spill
	}
	changed := false
	for i := 0; i < n; i++ {
		if l.Data[off+i] != buf[i] {
			changed = true
			l.Data[off+i] = buf[i]
		}
	}
	if changed {
		l.Dirty = true
	}
	return !changed
}

func (c *Cache) writeSpill(addr uint64, src []byte) {
	if set, way, hit := c.Probe(addr); hit {
		off := c.geom.BlockOffset(addr)
		copy(c.sets[set][way].Data[off:], src)
		c.sets[set][way].Dirty = true
		return
	}
	c.backing.Write(addr, src)
}

// PeekWord reads size bytes at addr from wherever the freshest copy lives
// (cache line if resident, else backing memory), without touching stats or
// replacement state. Used by verification.
func (c *Cache) PeekWord(addr uint64, size uint8) uint64 {
	var buf [8]byte
	for i := 0; i < int(size); i++ {
		buf[i] = c.peekByte(addr + uint64(i))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *Cache) peekByte(addr uint64) byte {
	if set, way, hit := c.Probe(addr); hit {
		return c.sets[set][way].Data[c.geom.BlockOffset(addr)]
	}
	return c.backing.LoadByte(addr)
}

// Set returns the lines of set s. Controllers use this to model the
// Set-Buffer (a copy of one whole set row); mutating the returned slice
// mutates the cache.
func (c *Cache) Set(s int) []Line { return c.sets[s] }

// SnapshotSet deep-copies set s — filling the Set-Buffer.
func (c *Cache) SnapshotSet(s int) []Line {
	src := c.sets[s]
	out := make([]Line, len(src))
	data := make([]byte, len(src)*c.geom.BlockBytes)
	for w := range src {
		out[w] = src[w]
		out[w].Data, data = data[:c.geom.BlockBytes], data[c.geom.BlockBytes:]
		copy(out[w].Data, src[w].Data)
	}
	return out
}

// SnapshotSetInto copies set s into dst, reusing dst's line buffers — the
// steady-state Set-Buffer refill, which must not allocate on the hot path.
// dst must have come from SnapshotSet on a cache of the same shape; anything
// else (nil included) falls back to a fresh snapshot.
func (c *Cache) SnapshotSetInto(s int, dst []Line) []Line {
	src := c.sets[s]
	if len(dst) != len(src) {
		return c.SnapshotSet(s)
	}
	for w := range src {
		data := dst[w].Data
		if len(data) != c.geom.BlockBytes {
			return c.SnapshotSet(s)
		}
		copy(data, src[w].Data)
		dst[w] = src[w]
		dst[w].Data = data
	}
	return dst
}

// RestoreSet copies buffered lines back into set s — the Set-Buffer
// write-back. Only data and dirty bits move; the protocol in internal/core
// guarantees no structural (tag/valid) change can occur while a set is
// buffered.
func (c *Cache) RestoreSet(s int, lines []Line) {
	dst := c.sets[s]
	for w := range dst {
		copy(dst[w].Data, lines[w].Data)
		dst[w].Dirty = lines[w].Dirty
		dst[w].Tag = lines[w].Tag
		dst[w].Valid = lines[w].Valid
	}
}

// FlushAll writes every dirty line back to memory and invalidates the cache.
func (c *Cache) FlushAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.evict(s, w)
		}
	}
}

// WritebackAll writes every dirty line back to memory, leaving lines valid.
// Attached listeners see these write-backs too — a final drain is real
// downstream traffic, and reporting it keeps the listener's ledger
// consistent with Stats.Writebacks.
func (c *Cache) WritebackAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.Valid && l.Dirty {
				base := c.lineBase(s, l.Tag)
				c.backing.Write(base, l.Data)
				l.Dirty = false
				c.stats.Writebacks++
				if c.listener != nil {
					c.listener.Writeback(base, l.Data)
				}
			}
		}
	}
}
