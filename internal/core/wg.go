package core

import (
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// setBuffer is one Set-Buffer entry: a copy of one whole cache set row (all
// ways, data and metadata) plus the Tag-Buffer bookkeeping the controller
// keeps for it (Figure 6b): the set number, the per-way tags (the row's
// Tags), and the Dirty bit.
type setBuffer struct {
	valid bool
	set   int
	row   cache.Row
	dirty bool
	// writes counts stores merged into this buffer residency — the size of
	// the write group, recorded into the group-size histogram at eviction.
	writes uint64
}

// wgController implements Write Grouping (§4.1, Algorithm 1) and, with
// bypass set, Write Grouping + Read Bypassing (§4.2).
//
// Invariant maintained throughout: while a set is buffered, its structure in
// the cache (tags, valid bits) cannot change. Any request that would fill or
// evict within a buffered set first writes the buffer back and invalidates
// it. The paper's single-entry buffer generalizes to BufferDepth entries
// (ablation A2) kept in MRU order.
type wgController struct {
	base
	buffers []setBuffer
	bypass  bool
}

func newWGController(b base) (*wgController, error) {
	depth := b.opts.BufferDepth
	if depth == 0 {
		depth = 1
	}
	if depth < 0 {
		return nil, fmt.Errorf("core: negative Set-Buffer depth %d", depth)
	}
	return &wgController{
		base:    b,
		buffers: make([]setBuffer, depth),
		bypass:  b.kind == WGRB,
	}, nil
}

// findBuffer returns the index of the buffer holding set, or -1.
func (c *wgController) findBuffer(set int) int {
	for i := range c.buffers {
		if c.buffers[i].valid && c.buffers[i].set == set {
			return i
		}
	}
	return -1
}

// touchMRU moves buffer i to the front of the MRU order.
func (c *wgController) touchMRU(i int) {
	if i == 0 {
		return
	}
	sb := c.buffers[i]
	copy(c.buffers[1:i+1], c.buffers[:i])
	c.buffers[0] = sb
}

// writeback performs the Set-Buffer write-back for buffer i if its Dirty bit
// is set: the buffered row is restored into the array with one row write
// (the write drivers already hold the full row, so no read phase is needed).
// A clear Dirty bit eliminates the write-back entirely — the silent-store
// optimization. The buffer stays valid either way; the caller decides
// whether to also invalidate.
func (c *wgController) writeback(i int, premature bool) {
	sb := &c.buffers[i]
	if !sb.valid {
		return
	}
	if !sb.dirty {
		c.counters.SilentElidedWBs++
		return
	}
	c.cache.WriteRow(sb.set, &sb.row)
	c.array.RMWWritePhase()
	c.counters.BufferWritebacks++
	if premature {
		c.counters.PrematureWBs++
	}
	sb.dirty = false
}

// flush writes buffer i back and invalidates it, closing its write group.
func (c *wgController) flush(i int) {
	c.writeback(i, false)
	sb := &c.buffers[i]
	if sb.valid && sb.writes > 0 {
		c.counters.recordGroup(sb.writes)
	}
	sb.valid = false
	sb.writes = 0
}

// probeTagBuffer performs the Tag-Buffer lookup every request starts with,
// recording comparator activity (one compare per buffer entry). It returns
// the entry holding set (-1 if none) and the way of tag in that entry (-1
// if the tag is not buffered). The buffer mirrors its set's structure, so
// a buffered tag sits in that same way of the cache.
func (c *wgController) probeTagBuffer(set int, tag uint64) (idx, way int) {
	c.counters.TagProbes++
	c.array.Record(sram.EvTagCompare, uint64(len(c.buffers)))
	idx = c.findBuffer(set)
	if idx < 0 {
		return -1, -1
	}
	if way = c.buffers[idx].row.Way(tag); way >= 0 {
		c.counters.TagHits++
	}
	return idx, way
}

// Access processes one request per Algorithm 1 (WG) or §4.2 (WG+RB).
func (c *wgController) Access(a trace.Access) uint64 {
	c.note(a)
	return c.step(a)
}

// feed is Access over a whole batch.
func (c *wgController) feed(batch []trace.Access) {
	c.noteBatch(batch)
	for i := range batch {
		c.step(batch[i])
	}
}

// step serves one request whose stream statistics are already noted.
func (c *wgController) step(a trace.Access) uint64 {
	g := c.geom
	if g.BlockOffset(a.Addr)+int(a.Size) > g.BlockBytes {
		return c.straddleFallback(a)
	}
	set := g.SetIndex(a.Addr)
	tag := g.Tag(a.Addr)
	if a.Kind == trace.Read {
		return c.read(a, set, tag)
	}
	return c.write(a, set, tag)
}

func (c *wgController) read(a trace.Access, set int, tag uint64) uint64 {
	idx, way := c.probeTagBuffer(set, tag)
	if way >= 0 {
		c.cache.Hit(set, way, false) // functional hit + LRU touch
		if c.bypass {
			// WG+RB: the RB mux routes data straight from the Set-Buffer;
			// no premature write-back, no array read.
			c.counters.BypassedReads++
			c.array.Record(sram.EvSetBufRead, 1)
			val := c.buffers[idx].row.ReadWord(way, c.geom.BlockOffset(a.Addr), a.Size)
			c.touchMRU(idx)
			return val
		}
		// WG: the cache must be updated before the array read so the read
		// returns the freshest value (Algorithm 1: "Write-back the
		// Set-Buffer if the Dirty is set ... Read from SRAM arrays").
		c.writeback(idx, true)
		c.touchMRU(idx)
		c.array.ReadAccess()
		return c.cache.ReadWord(set, way, a.Addr, a.Size)
	}
	if idx >= 0 {
		// The buffered set is being read with an unbuffered tag. If that
		// read misses in the cache it will evict within the buffered set,
		// so the buffer must be flushed first to keep its snapshot honest.
		if _, _, resident := c.cache.Probe(a.Addr); !resident {
			c.flush(idx)
		}
	}
	rs, rw, _ := c.cache.Ensure(a.Addr, false)
	c.array.ReadAccess()
	return c.cache.ReadWord(rs, rw, a.Addr, a.Size)
}

func (c *wgController) write(a trace.Access, set int, tag uint64) uint64 {
	idx, way := c.probeTagBuffer(set, tag)
	if way < 0 {
		// Under no-write-allocate a non-resident write bypasses the array
		// (and therefore the Set-Buffer). The tag probe above has already
		// established it is not buffered.
		if v, ok := c.writeAround(a); ok {
			return v
		}
		if idx >= 0 {
			// Same set, tag not resident: the allocate below would change
			// the buffered set's structure. Flush first.
			c.flush(idx)
		}
		idx = c.allocateBuffer(a)
		way = c.buffers[idx].row.Way(tag)
	} else {
		// The whole point: this write joins the buffered group without any
		// array access.
		c.counters.GroupedWrites++
		c.cache.Hit(set, way, true) // functional hit + LRU touch
	}
	sb := &c.buffers[idx]
	sb.writes++
	silent := sb.row.WriteWord(way, c.geom.BlockOffset(a.Addr), a.Size, a.Data)
	c.array.Record(sram.EvSilentCompare, 1)
	if silent {
		c.counters.SilentWrites++
	}
	if !silent {
		sb.row.State[way] |= cache.Dirty
		sb.dirty = true
	} else if c.opts.DisableSilentElision {
		// A1 ablation: the controller has no comparators; every write
		// makes the buffer dirty.
		sb.dirty = true
	}
	c.touchMRU(idx)
	// The buffered line now holds the low Size bytes of Data verbatim
	// (straddles were diverted before buffering), so the stored value needs
	// no read-back.
	return a.Data & sizeMask(a.Size)
}

// allocateBuffer evicts the LRU Set-Buffer entry (writing it back if dirty),
// establishes residency of a's block, and fills the entry with one row read.
// Returns the entry index (always the MRU-front after touch by caller).
func (c *wgController) allocateBuffer(a trace.Access) int {
	victim := -1
	for i := range c.buffers {
		if !c.buffers[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = len(c.buffers) - 1
		c.flush(victim)
	}
	set, _, _ := c.cache.Ensure(a.Addr, true)
	c.array.RMWReadPhase() // "Fill the Set-Buffer by read row"
	c.counters.BufferFills++
	sb := &c.buffers[victim]
	// Refill in place: ReadRow reuses the entry's row, so steady-state
	// buffer turnover allocates nothing.
	c.cache.ReadRow(set, &sb.row)
	sb.valid = true
	sb.set = set
	sb.dirty = false
	sb.writes = 0
	return victim
}

// straddleFallback handles the rare block-boundary-crossing access: flush
// everything and fall back to baseline RMW behaviour for this one request.
func (c *wgController) straddleFallback(a trace.Access) uint64 {
	for i := range c.buffers {
		c.flush(i)
	}
	if a.Kind == trace.Write {
		if v, ok := c.writeAround(a); ok {
			return v
		}
	}
	set, way, _ := c.cache.Ensure(a.Addr, a.Kind == trace.Write)
	if a.Kind == trace.Read {
		c.array.ReadAccess()
		return c.cache.ReadWord(set, way, a.Addr, a.Size)
	}
	c.array.RMW()
	c.cache.WriteWord(set, way, a.Addr, a.Size, a.Data)
	return a.Data & sizeMask(a.Size)
}

// Finalize drains every Set-Buffer entry and returns the run result.
func (c *wgController) Finalize() Result {
	for i := range c.buffers {
		c.flush(i)
	}
	return c.finalize(false)
}
