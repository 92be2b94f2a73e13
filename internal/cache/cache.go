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

// LineState holds one line's valid and dirty bits.
type LineState uint8

const (
	// Valid marks a line holding a block.
	Valid LineState = 1 << iota
	// Dirty marks a line whose data differs from backing memory.
	Dirty
)

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
//
// Lines live in flat arrays indexed by set*ways+way: tags, states and data,
// line i's block at data[i*BlockBytes:]. Replacement state is one flat word
// array too (policy.go).
type Cache struct {
	geom  Geometry
	ways  int
	tags  []uint64
	state []LineState
	data  []byte

	policy PolicyKind
	stride int      // replacement words per set
	repl   []uint32 // set s's words are repl[s*stride:][:stride]
	// rand is the RNG every set's Random replacement draws victims from
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
	if cfg.Policy > TreePLRU {
		return nil, fmt.Errorf("cache: invalid replacement policy %v", cfg.Policy)
	}
	lines := geom.Sets * geom.Ways
	c := &Cache{
		geom:    geom,
		ways:    geom.Ways,
		tags:    make([]uint64, lines),
		state:   make([]LineState, lines),
		data:    make([]byte, lines*geom.BlockBytes),
		policy:  cfg.Policy,
		stride:  policyStride(cfg.Policy, geom.Ways),
		rand:    rng.New(cfg.Seed),
		backing: backing,
		noAlloc: cfg.NoWriteAllocate,
	}
	c.repl = make([]uint32, geom.Sets*c.stride)
	c.resetPolicy()
	return c, nil
}

// line returns line i's block.
func (c *Cache) line(i int) []byte {
	return c.data[i<<c.geom.blockShift:][:c.geom.BlockBytes]
}

// Geometry returns the cache shape.
func (c *Cache) Geometry() Geometry { return c.geom }

// Stats returns a copy of the functional event counters.
func (c *Cache) Stats() Stats { return c.stats }

// RestoreStats replaces the functional event counters, for checkpoint
// restore.
func (c *Cache) RestoreStats(s Stats) { c.stats = s }

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
			li := set*c.ways + way
			off := c.geom.BlockOffset(b)
			if l := c.line(li); l[off] != buf[i] {
				l[off] = buf[i]
				c.state[li] |= Dirty
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
	i := set * c.ways
	state := c.state[i : i+c.ways]
	for w, t := range c.tags[i : i+c.ways] {
		if t == tag && state[w]&Valid != 0 {
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
	if hit {
		c.Hit(set, way, isWrite)
		return set, way, true
	}
	if isWrite {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	way = c.fill(set, c.geom.Tag(addr), c.geom.BlockBase(addr))
	return set, way, false
}

// Hit accounts a request to the resident line (set, way) as Ensure would
// for an address the caller already knows is held there: it counts the hit
// and updates replacement state, without the lookup.
func (c *Cache) Hit(set, way int, isWrite bool) {
	if isWrite {
		c.stats.WriteHits++
	} else {
		c.stats.ReadHits++
	}
	c.touch(set, way)
}

// fill victimizes a way in set and loads the block at base into it.
func (c *Cache) fill(set int, tag, base uint64) int {
	i := set * c.ways
	way := -1
	for w, st := range c.state[i : i+c.ways] {
		if st&Valid == 0 {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.victim(set)
		c.evict(set, way)
	}
	i += way
	c.backing.Read(base, c.line(i))
	c.tags[i] = tag
	c.state[i] = Valid
	c.stats.Fills++
	if c.listener != nil {
		c.listener.Fill(base)
	}
	c.insert(set, way)
	return way
}

// evict writes back way's line if dirty and invalidates it. The tag stays,
// as checkpoints record it.
func (c *Cache) evict(set, way int) {
	i := set*c.ways + way
	st := c.state[i]
	if st&Valid == 0 {
		return
	}
	if st&Dirty != 0 {
		c.writeback(set, i)
	}
	c.state[i] = 0
	c.stats.Evictions++
}

// writeback writes line i of set back to memory, telling the listener.
func (c *Cache) writeback(set, i int) {
	base := c.lineBase(set, c.tags[i])
	c.backing.Write(base, c.line(i))
	c.stats.Writebacks++
	if c.listener != nil {
		c.listener.Writeback(base, c.line(i))
	}
}

// lineBase reconstructs the block base address of a resident line.
func (c *Cache) lineBase(set int, tag uint64) uint64 {
	return tag<<c.geom.tagShift | uint64(set)<<c.geom.blockShift
}

// ReadWord reads size bytes at addr from the resident line (set, way).
// The caller must have established residency via Ensure.
func (c *Cache) ReadWord(set, way int, addr uint64, size uint8) uint64 {
	l := c.line(set*c.ways + way)
	off := c.geom.BlockOffset(addr)
	if off+int(size) <= len(l) {
		return loadWord(l, off, size)
	}
	// Access straddles a block boundary; fetch the spill bytes from the
	// next block via backing-consistent path. Workload generators emit
	// aligned accesses, so this path is defensive.
	var buf [8]byte
	n := copy(buf[:size], l[off:])
	spill := c.readSpill(addr+uint64(n), int(size)-n)
	copy(buf[n:size], spill)
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *Cache) readSpill(addr uint64, n int) []byte {
	out := make([]byte, n)
	if set, way, hit := c.Probe(addr); hit {
		off := c.geom.BlockOffset(addr)
		copy(out, c.line(set*c.ways + way)[off:off+n])
		return out
	}
	c.backing.Read(addr, out)
	return out
}

// WriteWord writes the low size bytes of data at addr into the resident line
// (set, way), marking it dirty if the content changed. It reports whether the
// write was silent (stored value identical to the previous content).
func (c *Cache) WriteWord(set, way int, addr uint64, size uint8, data uint64) (silent bool) {
	i := set*c.ways + way
	l := c.line(i)
	off := c.geom.BlockOffset(addr)
	n := int(size)
	if off+n <= len(l) {
		if !storeWord(l, off, size, data) {
			return true
		}
		c.state[i] |= Dirty
		return false
	}
	// Straddling store: write the spill through to backing memory so the
	// architectural image stays exact. Defensive; see ReadWord.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	spill := n - (len(l) - off)
	c.writeSpill(addr+uint64(n-spill), buf[n-spill:n])
	n -= spill
	changed := false
	for b := 0; b < n; b++ {
		if l[off+b] != buf[b] {
			changed = true
			l[off+b] = buf[b]
		}
	}
	if changed {
		c.state[i] |= Dirty
	}
	return !changed
}

func (c *Cache) writeSpill(addr uint64, src []byte) {
	if set, way, hit := c.Probe(addr); hit {
		i := set*c.ways + way
		copy(c.line(i)[c.geom.BlockOffset(addr):], src)
		c.state[i] |= Dirty
		return
	}
	c.backing.Write(addr, src)
}

// loadWord returns the size bytes at off in a line, reading the eight bytes
// that hold them: from off, or ending at the line's end when off is within
// eight bytes of it. off+size must not pass the line's end.
func loadWord(line []byte, off int, size uint8) uint64 {
	p := min(off, len(line)-8)
	return binary.LittleEndian.Uint64(line[p:]) >> (8 * uint(off-p)) & mem.WordMask(size)
}

// storeWord writes the low size bytes of v at off in a line and reports
// whether any byte changed: one masked compare of the eight bytes that hold
// them, found as in loadWord, and a store only when they differ.
func storeWord(line []byte, off int, size uint8, v uint64) (changed bool) {
	p := min(off, len(line)-8)
	sh := 8 * uint(off-p)
	m := mem.WordMask(size) << sh
	old := binary.LittleEndian.Uint64(line[p:])
	word := old&^m | v<<sh&m
	if word == old {
		return false
	}
	binary.LittleEndian.PutUint64(line[p:], word)
	return true
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
		return c.line(set*c.ways + way)[c.geom.BlockOffset(addr)]
	}
	return c.backing.LoadByte(addr)
}

// Row is a copy of one set's lines in way order: tags, states, and the
// blocks back to back in Data. It is the view checkpoints and tests read a
// set's lines through.
type Row struct {
	Tags  []uint64
	State []LineState
	Data  []byte
	block int // bytes per block
}

// NewRow returns an empty row shaped for g.
func NewRow(g Geometry) Row {
	return Row{
		Tags:  make([]uint64, g.Ways),
		State: make([]LineState, g.Ways),
		Data:  make([]byte, g.SetBytes()),
		block: g.BlockBytes,
	}
}

// Line returns way w's block.
func (r *Row) Line(w int) []byte {
	return r.Data[w*r.block:][:r.block]
}

// Way returns the way holding a valid line tagged tag, or -1.
func (r *Row) Way(tag uint64) int {
	for w, t := range r.Tags {
		if t == tag && r.State[w]&Valid != 0 {
			return w
		}
	}
	return -1
}

// ReadWord reads size bytes at offset off of way w's block; off+size must
// not pass the block's end.
func (r *Row) ReadWord(w, off int, size uint8) uint64 {
	return loadWord(r.Line(w), off, size)
}

// WriteWord writes the low size bytes of v at offset off of way w's block
// and reports whether the write was silent. It leaves the line's state
// alone; off+size must not pass the block's end.
func (r *Row) WriteWord(w, off int, size uint8, v uint64) (silent bool) {
	return !storeWord(r.Line(w), off, size, v)
}

// ReadRow copies set s into dst. dst's storage is reused when it has the
// cache's shape and allocated otherwise.
func (c *Cache) ReadRow(s int, dst *Row) {
	if len(dst.Tags) != c.ways || dst.block != c.geom.BlockBytes {
		*dst = NewRow(c.geom)
	}
	i := s * c.ways
	copy(dst.Tags, c.tags[i:])
	copy(dst.State, c.state[i:])
	copy(dst.Data, c.data[i<<c.geom.blockShift:])
}

// WriteRow copies src, a row of the cache's shape, over set s, as a
// checkpoint restores it.
func (c *Cache) WriteRow(s int, src *Row) {
	i := s * c.ways
	copy(c.tags[i:i+c.ways], src.Tags)
	copy(c.state[i:i+c.ways], src.State)
	copy(c.data[i<<c.geom.blockShift:][:c.geom.SetBytes()], src.Data)
}

// FlushAll writes every dirty line back to memory and invalidates the cache.
func (c *Cache) FlushAll() {
	for s := 0; s < c.geom.Sets; s++ {
		for w := 0; w < c.ways; w++ {
			c.evict(s, w)
		}
	}
}
