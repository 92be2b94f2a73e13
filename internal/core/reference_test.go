package core

import (
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// The frozen reference: the five controller types this package shipped
// before the walk/accountant split, each walking its own cache access by
// access. They are kept only as the definition the new code is held to
// (referenceResult, the oracle suite, requireMatchesReference and
// FuzzSchemesAgainstReference), so a bug the split introduced cannot hide
// behind the new code checking itself. Their bodies are unchanged apart
// from the edits a test file forces: the batch feed and checkpoint hooks
// are gone, and the constructor is newReference.

// referenceController is what every frozen controller provides.
type referenceController interface {
	Access(a trace.Access) uint64
	Finalize() Result
}

// newReference builds a frozen controller of the given kind over c.
func newReference(kind Kind, c *cache.Cache, opts Options) (referenceController, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil cache")
	}
	arr, err := newArrayFor(kind, c.Geometry())
	if err != nil {
		return nil, err
	}
	base := base{kind: kind, cache: c, geom: c.Geometry(), array: arr, opts: opts}
	switch kind {
	case Conventional, WordGranularity:
		return &directController{base: base}, nil
	case RMW, LocalRMW:
		return &rmwController{base: base}, nil
	case Coalesce:
		return &coalesceController{base: base}, nil
	case KindTS:
		return &tsController{base: base}, nil
	case WG, WGRB:
		return newWGController(base)
	default:
		return nil, fmt.Errorf("core: unknown controller kind %d", kind)
	}
}

// base carries the state every controller shares.
type base struct {
	kind  Kind
	cache *cache.Cache
	// geom is the cache geometry hoisted out of the per-access path: Access
	// runs once per trace entry, and the method call plus struct copy of
	// cache.Geometry() is measurable there.
	geom     cache.Geometry
	array    *sram.Array
	opts     Options
	requests trace.Stats
	counters Counters
}

// note records stream-level statistics for one request.
func (b *base) note(a trace.Access) {
	b.requests.Observe(a)
	if a.Kind == trace.Read {
		b.counters.DemandReads++
	} else {
		b.counters.DemandWrites++
	}
}

// writeAround handles a write under the no-write-allocate policy: if the
// block is not resident, the store bypasses the SRAM array entirely (it
// heads for the next level through the miss path) and costs no array
// operation. Returns the stored value and true when it applied.
func (b *base) writeAround(a trace.Access) (uint64, bool) {
	if !b.cache.NoWriteAllocate() {
		return 0, false
	}
	if _, _, hit := b.cache.Probe(a.Addr); hit {
		return 0, false
	}
	b.cache.WriteAround(a.Addr, a.Size, a.Data)
	return b.cache.PeekWord(a.Addr, a.Size), true
}

// finalize assembles the Result shared by all controllers.
func (b *base) finalize(localWriteback bool) Result {
	r := Result{
		Controller:     b.kind,
		Geometry:       b.cache.Geometry(),
		Requests:       b.requests,
		Cache:          b.cache.Stats(),
		Counters:       b.counters,
		ArrayReads:     b.array.Count(sram.EvRowRead),
		ArrayWrites:    b.array.Count(sram.EvRowWrite),
		LocalWriteback: localWriteback,
		Events:         b.array,
	}
	if b.opts.CountFillTraffic {
		// A fill writes one block into a row (a partial-row write: RMW cost
		// on interleaved 8T arrays, direct write otherwise); a dirty
		// eviction reads the row out. Mirror that in the totals.
		fills := r.Cache.Fills
		wbs := r.Cache.Writebacks
		if b.array.Config().NeedsRMW() {
			r.ArrayReads += fills
		}
		r.ArrayWrites += fills
		r.ArrayReads += wbs
	}
	return r
}

// directController serves Conventional (6T) and WordGranularity (Chang et
// al.) schemes: a read is one array read, a write is one array write. No
// buffering, no RMW.
type directController struct {
	base
}

// Access processes one request.
func (c *directController) Access(a trace.Access) uint64 {
	c.note(a)
	return c.step(a)
}

// step serves one request whose stream statistics are already noted.
func (c *directController) step(a trace.Access) uint64 {
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
	c.array.DirectWrite()
	c.cache.WriteWord(set, way, a.Addr, a.Size, a.Data)
	return a.Data & sizeMask(a.Size)
}

// Finalize returns the run result.
func (c *directController) Finalize() Result {
	return c.finalize(false)
}

// rmwController is the 8T baseline: the column-selection issue in a
// bit-interleaved 8T array forces every write through read-modify-write
// (Morita et al., §2) — the addressed row is read into latches, selected
// columns are merged from Data-in, and the whole row is written back. Each
// write therefore costs two array accesses and occupies the read port,
// making 1R+1W dual-port operation impossible during writes.
//
// With kind == LocalRMW the traffic is identical but the write-back is
// contained within one sub-array (Park et al.), which the timing model
// credits with fewer port conflicts.
type rmwController struct {
	base
}

// Access processes one request.
func (c *rmwController) Access(a trace.Access) uint64 {
	c.note(a)
	return c.step(a)
}

// step serves one request whose stream statistics are already noted.
func (c *rmwController) step(a trace.Access) uint64 {
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

// Finalize returns the run result.
func (c *rmwController) Finalize() Result {
	return c.finalize(c.kind == LocalRMW)
}

// tsController models TS Cache's timing speculation on the 8T array: reads
// issue against an aggressive (under-margined) timing and speculatively
// forward their data; when speculation fails — here, deterministically on
// every tsReplayPeriod-th read — the read replays through the array at safe
// timing, costing a second full array read. Functionally the replay returns
// the same data (the first access's value was wrong only in the timing
// domain), so the controller is value-equivalent to RMW and the existing
// differential oracle applies unchanged. Writes take the plain RMW path:
// timing speculation targets the read critical path.
//
// The replay schedule counts reads globally across sets, so the controller
// is not set-local (setLocal() is false via the Kind classification) and
// sharded runs fall back to the serial driver.
type tsController struct {
	base
	// specReads counts reads issued so far; every tsReplayPeriod-th one
	// replays. Checkpointed (ckptExtraTS) so resumed runs keep the schedule.
	specReads uint64
}

// Access processes one request.
func (c *tsController) Access(a trace.Access) uint64 {
	c.note(a)
	return c.step(a)
}

// step serves one request whose stream statistics are already noted.
func (c *tsController) step(a trace.Access) uint64 {
	if a.Kind == trace.Write {
		if v, ok := c.writeAround(a); ok {
			return v
		}
	}
	set, way, _ := c.cache.Ensure(a.Addr, a.Kind == trace.Write)
	if a.Kind == trace.Read {
		c.array.ReadAccess()
		c.specReads++
		if c.specReads%tsReplayPeriod == 0 {
			// Mis-speculation: the forwarded data misses its margin and the
			// read re-executes at safe timing — a second array access on the
			// same resident line, no functional state change.
			c.array.ReadAccess()
		}
		return c.cache.ReadWord(set, way, a.Addr, a.Size)
	}
	c.array.RMW()
	c.cache.WriteWord(set, way, a.Addr, a.Size, a.Data)
	return a.Data & sizeMask(a.Size)
}

// Finalize returns the run result.
func (c *tsController) Finalize() Result {
	return c.finalize(false)
}

// coalesceController models the obvious alternative to Write Grouping: a
// conventional block-granular coalescing write buffer in front of the RMW
// write path. Consecutive writes to the *same block* merge and cost nothing;
// any write to a different block — or a read to the pending block — flushes
// the buffer with one full RMW (the array is still bit-interleaved 8T, so a
// flush still pays the read phase).
//
// The comparison isolates WG's two structural advantages: the Set-Buffer
// works at *set* granularity (all ways of a row, so writes to different
// blocks of one set still group), and its fill/write-back split lets reads
// be bypassed (WG+RB) instead of forcing a flush. Silent-write elision is
// given to the coalescer too, to keep the comparison about granularity.
//
// Functionally, writes commit to the cache immediately; only the *array
// cost* is deferred, so architectural behaviour is identical to RMW (and is
// covered by the equivalence property tests).
type coalesceController struct {
	base
	pendingValid bool
	pendingBase  uint64 // block base address
	pendingDirty bool
}

// Access processes one request.
func (c *coalesceController) Access(a trace.Access) uint64 {
	c.note(a)
	return c.step(a)
}

// step serves one request whose stream statistics are already noted.
func (c *coalesceController) step(a trace.Access) uint64 {
	g := c.geom
	base := g.BlockBase(a.Addr)
	straddles := g.BlockOffset(a.Addr)+int(a.Size) > g.BlockBytes

	if a.Kind == trace.Write {
		// No-write-allocate: a non-resident store bypasses array and
		// buffer alike (a straddling one drains the buffer first, since
		// its spill bytes may land in the pending block's line).
		if c.cache.NoWriteAllocate() {
			if _, _, hit := c.cache.Probe(a.Addr); !hit {
				if straddles {
					c.flushPending()
				}
				if v, ok := c.writeAround(a); ok {
					return v
				}
			}
		}
	}

	set, way, _ := c.cache.Ensure(a.Addr, a.Kind == trace.Write)
	if a.Kind == trace.Read {
		if c.pendingValid && (base == c.pendingBase || straddles) {
			c.flushPending()
		}
		c.array.ReadAccess()
		return c.cache.ReadWord(set, way, a.Addr, a.Size)
	}

	if straddles {
		// Conservative: drain and pay a full RMW for the odd access.
		c.flushPending()
		c.array.RMW()
		c.cache.WriteWord(set, way, a.Addr, a.Size, a.Data)
		return a.Data & sizeMask(a.Size)
	}

	if !c.pendingValid || base != c.pendingBase {
		c.flushPending()
		c.pendingValid = true
		c.pendingBase = base
		c.pendingDirty = false
		c.counters.BufferFills++
	} else {
		c.counters.GroupedWrites++
	}
	silent := c.cache.WriteWord(set, way, a.Addr, a.Size, a.Data)
	if silent {
		c.counters.SilentWrites++
	} else {
		c.pendingDirty = true
	}
	return a.Data & sizeMask(a.Size)
}

// flushPending retires the pending block. The merge into a bit-interleaved
// row always needs the RMW read phase (the buffer holds only one block of
// the row); only the write phase can be elided, when the read-out row shows
// every merged write was silent. This keeps silence detection honest: the
// coalescer, unlike the Set-Buffer, has no pre-paid row image to compare
// against before the flush.
func (c *coalesceController) flushPending() {
	if !c.pendingValid {
		return
	}
	c.pendingValid = false
	c.array.RMWReadPhase()
	if !c.pendingDirty {
		c.counters.SilentElidedWBs++
		return
	}
	c.array.RMWWritePhase()
	c.counters.BufferWritebacks++
}

// Finalize drains the buffer and returns the result.
func (c *coalesceController) Finalize() Result {
	c.flushPending()
	return c.finalize(false)
}

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
