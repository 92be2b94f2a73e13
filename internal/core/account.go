package core

import (
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// accountant is one kind's state machine over the walk's outcomes: it holds
// the counters, the sram.Array event ledger and its kind's own state, and
// never the cache, so every scheme returns the same values by construction.
type accountant interface {
	// account charges accs in order: outs[i] is what the walk did for
	// accs[i].
	account(accs []trace.Access, outs []outcome)
	// drain empties the accountant's buffers, as Finalize does.
	drain()
	// book returns the state every accountant keeps.
	book() *ledger
}

// accountants are the accountants of one run, one per scheme, in scheme
// order. Every one charges the same outcomes.
type accountants []accountant

// newAccountants builds an accountant of each scheme for a cache of shape g.
func newAccountants(g cache.Geometry, schemes []Scheme) (accountants, error) {
	if len(schemes) == 0 {
		return nil, fmt.Errorf("core: no scheme to run")
	}
	accts := make(accountants, len(schemes))
	for i, sc := range schemes {
		a, err := newAccountant(sc, g)
		if err != nil {
			return nil, err
		}
		accts[i] = a
	}
	return accts, nil
}

// charge charges accs, with outs[i] the walk's outcome for accs[i], to every
// accountant.
func (as accountants) charge(accs []trace.Access, outs []outcome) {
	for _, a := range as {
		a.account(accs, outs)
	}
}

// results drains every accountant and returns their Results in scheme
// order, over the walk's cache statistics st.
func (as accountants) results(st cache.Stats) []Result {
	out := make([]Result, len(as))
	for i, a := range as {
		a.drain()
		out[i] = a.book().result(st)
	}
	return out
}

// newAccountant builds the accountant of sc for a cache of shape g.
func newAccountant(sc Scheme, g cache.Geometry) (accountant, error) {
	kind, opts := sc.Kind, sc.Opts
	arr, err := newArrayFor(kind, g)
	if err != nil {
		return nil, err
	}
	l := ledger{kind: kind, geom: g, array: arr, opts: opts}
	switch kind {
	case Conventional, WordGranularity, RMW, LocalRMW, KindTS:
		return &plainAccountant{ledger: l}, nil
	case Coalesce:
		return &coalesceAccountant{ledger: l}, nil
	case WG, WGRB:
		if opts.BufferDepth < 0 {
			return nil, fmt.Errorf("core: negative Set-Buffer depth %d", opts.BufferDepth)
		}
		return &wgAccountant{ledger: l, buffers: make([]wgEntry, max(1, opts.BufferDepth)), bypass: kind == WGRB}, nil
	default:
		return nil, fmt.Errorf("core: unknown controller kind %d", kind)
	}
}

// ledger is the state every accountant keeps.
type ledger struct {
	kind     Kind
	geom     cache.Geometry
	array    *sram.Array
	opts     Options
	requests trace.Stats
	counters Counters
}

func (l *ledger) book() *ledger { return l }

// noteBatch records the stream statistics of a batch, summed once for it.
func (l *ledger) noteBatch(batch []trace.Access) {
	var reads, gaps uint64
	for i := range batch {
		if batch[i].Kind == trace.Read {
			reads++
		}
		gaps += uint64(batch[i].Gap)
	}
	n := uint64(len(batch))
	l.requests.Reads += reads
	l.requests.Writes += n - reads
	l.requests.Instructions += gaps + n
	l.counters.DemandReads += reads
	l.counters.DemandWrites += n - reads
}

// result assembles the run's Result from the ledger and the walk's cache
// statistics.
func (l *ledger) result(st cache.Stats) Result {
	r := Result{
		Controller:     l.kind,
		Geometry:       l.geom,
		Requests:       l.requests,
		Cache:          st,
		Counters:       l.counters,
		ArrayReads:     l.array.Count(sram.EvRowRead),
		ArrayWrites:    l.array.Count(sram.EvRowWrite),
		LocalWriteback: l.kind == LocalRMW,
		Events:         l.array,
	}
	if l.opts.CountFillTraffic {
		// A fill writes one block into a row (a partial-row write: RMW cost
		// on interleaved 8T arrays, direct write otherwise); a dirty
		// eviction reads the row out. Mirror that in the totals.
		if l.array.Config().NeedsRMW() {
			r.ArrayReads += st.Fills
		}
		r.ArrayWrites += st.Fills
		r.ArrayReads += st.Writebacks
	}
	return r
}

// tsReplayPeriod is the deterministic mis-speculation schedule: one read in
// every tsReplayPeriod completes with wrong timing margins and replays
// through the array. 1/16 ≈ 6% sits inside the error-rate band TS Cache
// (arXiv:1904.11200) reports for aggressive low-voltage timing; being a
// fixed schedule rather than a sampled one keeps runs bit-reproducible and
// lets the replay count be derived from the ledger (ArrayReads minus
// DemandReads minus fill traffic) without a new counter.
const tsReplayPeriod = 16

// plainAccountant charges every read one array read and every write one
// array write, with no buffering:
//
//   - Conventional (6T) and WordGranularity (Chang et al.) write directly.
//   - RMW is the 8T baseline: the column-selection issue in a
//     bit-interleaved 8T array forces every write through read-modify-write
//     (Morita et al., §2), two array accesses that occupy the read port.
//     LocalRMW has the same traffic with the write-back contained in one
//     sub-array (Park et al.), which the timing model credits.
//   - KindTS models TS Cache's timing speculation: writes take the RMW
//     path, and every tsReplayPeriod-th read mis-speculates and replays
//     through the array at safe timing, a second array read. The schedule
//     counts reads across sets, and lives here rather than in the walk.
type plainAccountant struct {
	ledger
	// specReads counts reads issued so far under TS. Checkpointed
	// (ckptExtraTS) so resumed runs keep the schedule.
	specReads uint64
}

func (p *plainAccountant) account(accs []trace.Access, outs []outcome) {
	p.noteBatch(accs)
	direct := p.kind == Conventional || p.kind == WordGranularity
	for _, o := range outs {
		switch {
		case o&outWrite == 0:
			p.array.ReadAccess()
			if p.kind == KindTS {
				p.specReads++
				if p.specReads%tsReplayPeriod == 0 {
					p.array.ReadAccess()
				}
			}
		case o&outAround != 0:
			// A write-around bypasses the array.
		case direct:
			p.array.DirectWrite()
		default:
			p.array.RMW()
		}
	}
}

func (p *plainAccountant) drain() {}

// coalesceAccountant models the obvious alternative to Write Grouping: a
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
type coalesceAccountant struct {
	ledger
	pendingValid bool
	pendingBase  uint64 // block base address
	pendingDirty bool
}

func (c *coalesceAccountant) account(accs []trace.Access, outs []outcome) {
	c.noteBatch(accs)
	for i, o := range outs {
		base := c.geom.BlockBase(accs[i].Addr)
		straddles := o&outStraddle != 0
		switch {
		case o&outAround != 0:
			// A write-around bypasses array and buffer alike; a straddling
			// one drains the buffer first, since its spill bytes may land
			// in the pending block's line.
			if straddles {
				c.flushPending()
			}
		case o&outWrite == 0:
			if c.pendingValid && (base == c.pendingBase || straddles) {
				c.flushPending()
			}
			c.array.ReadAccess()
		case straddles:
			// Conservative: drain and pay a full RMW for the odd access.
			c.flushPending()
			c.array.RMW()
		default:
			if !c.pendingValid || base != c.pendingBase {
				c.flushPending()
				c.pendingValid = true
				c.pendingBase = base
				c.pendingDirty = false
				c.counters.BufferFills++
			} else {
				c.counters.GroupedWrites++
			}
			if o&outSilent != 0 {
				c.counters.SilentWrites++
			} else {
				c.pendingDirty = true
			}
		}
	}
}

// flushPending retires the pending block. The merge into a bit-interleaved
// row always needs the RMW read phase (the buffer holds only one block of
// the row); only the write phase can be elided, when the read-out row shows
// every merged write was silent. This keeps silence detection honest: the
// coalescer, unlike the Set-Buffer, has no pre-paid row image to compare
// against before the flush.
func (c *coalesceAccountant) flushPending() {
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

func (c *coalesceAccountant) drain() { c.flushPending() }

// wgEntry is one Set-Buffer entry (Figure 6b): the set it holds, its Dirty
// bit and the size of its write group. Its row is the set's live lines,
// which the walk keeps in the cache.
type wgEntry struct {
	valid bool
	set   int
	dirty bool
	// writes counts stores merged into this buffer residency — the size of
	// the write group, recorded into the group-size histogram at eviction.
	writes uint64
}

// wgAccountant implements Write Grouping (§4.1, Algorithm 1) and, with
// bypass set, Write Grouping + Read Bypassing (§4.2).
//
// A buffered set's structure (tags, valid bits) cannot change while it is
// buffered: any request that fills or evicts within it writes the buffer
// back and invalidates it first. So a buffered set holds a request's tag
// exactly when the walk found the block resident. The paper's single-entry
// buffer generalizes to BufferDepth entries (ablation A2) kept in MRU order.
type wgAccountant struct {
	ledger
	buffers []wgEntry
	bypass  bool
}

func (c *wgAccountant) account(accs []trace.Access, outs []outcome) {
	c.noteBatch(accs)
	for _, o := range outs {
		c.step(o)
	}
}

// step charges one request per Algorithm 1 (WG) or §4.2 (WG+RB).
func (c *wgAccountant) step(o outcome) {
	if o&outStraddle != 0 {
		// The rare block-crossing access: flush everything and charge it
		// as the RMW baseline would.
		c.drain()
		switch {
		case o&outWrite == 0:
			c.array.ReadAccess()
		case o&outAround == 0:
			c.array.RMW()
		}
		return
	}
	// Every request starts with the Tag-Buffer lookup, one compare per entry.
	c.counters.TagProbes++
	c.array.Record(sram.EvTagCompare, uint64(len(c.buffers)))
	idx := c.find(o.set())
	tagHit := idx >= 0 && o&outHit != 0
	if tagHit {
		c.counters.TagHits++
	}
	switch {
	case o&outAround != 0:
		// A write-around bypasses the array, and so the Set-Buffer.
	case o&outWrite != 0:
		c.write(o, idx, tagHit)
	case tagHit && c.bypass:
		// WG+RB: the RB mux routes data straight from the Set-Buffer; no
		// premature write-back, no array read.
		c.counters.BypassedReads++
		c.array.Record(sram.EvSetBufRead, 1)
		c.touchMRU(idx)
	case tagHit:
		// WG: the array must hold the freshest value before it is read
		// (Algorithm 1: "Write-back the Set-Buffer if the Dirty is set ...
		// Read from SRAM arrays").
		c.writeback(idx, true)
		c.touchMRU(idx)
		c.array.ReadAccess()
	default:
		if idx >= 0 {
			// The buffered set missed: the fill evicts within it, so the
			// buffer is flushed first.
			c.flush(idx)
		}
		c.array.ReadAccess()
	}
}

func (c *wgAccountant) write(o outcome, idx int, tagHit bool) {
	if tagHit {
		// The whole point: this write joins the buffered group without any
		// array access.
		c.counters.GroupedWrites++
	} else {
		if idx >= 0 {
			// Same set, tag not resident: the fill changes the buffered
			// set's structure, so the buffer is flushed first.
			c.flush(idx)
		}
		idx = c.fill(o.set())
	}
	e := &c.buffers[idx]
	e.writes++
	c.array.Record(sram.EvSilentCompare, 1)
	if o&outSilent != 0 {
		c.counters.SilentWrites++
		// A1 ablation: without comparators every write dirties the buffer.
		e.dirty = e.dirty || c.opts.DisableSilentElision
	} else {
		e.dirty = true
	}
	c.touchMRU(idx)
}

// fill takes the first free entry, or else flushes the LRU one, and fills
// it with set by one row read. It returns the entry's index.
func (c *wgAccountant) fill(set int) int {
	victim := len(c.buffers) - 1
	for i := range c.buffers {
		if !c.buffers[i].valid {
			victim = i
			break
		}
	}
	c.flush(victim)        // a no-op on a free entry
	c.array.RMWReadPhase() // "Fill the Set-Buffer by read row"
	c.counters.BufferFills++
	e := &c.buffers[victim]
	e.valid = true
	e.set = set
	e.dirty = false
	e.writes = 0
	return victim
}

// writeback performs the Set-Buffer write-back for entry i if its Dirty bit
// is set: one row write (the write drivers already hold the full row, so no
// read phase is needed). A clear Dirty bit eliminates the write-back
// entirely — the silent-store optimization. The entry stays valid either
// way; the caller decides whether to also invalidate.
func (c *wgAccountant) writeback(i int, premature bool) {
	e := &c.buffers[i]
	if !e.valid {
		return
	}
	if !e.dirty {
		c.counters.SilentElidedWBs++
		return
	}
	c.array.RMWWritePhase()
	c.counters.BufferWritebacks++
	if premature {
		c.counters.PrematureWBs++
	}
	e.dirty = false
}

// flush writes entry i back and invalidates it, closing its write group.
func (c *wgAccountant) flush(i int) {
	c.writeback(i, false)
	e := &c.buffers[i]
	if e.valid && e.writes > 0 {
		c.counters.recordGroup(e.writes)
	}
	e.valid = false
	e.writes = 0
}

func (c *wgAccountant) drain() {
	for i := range c.buffers {
		c.flush(i)
	}
}

// find returns the index of the entry holding set, or -1.
func (c *wgAccountant) find(set int) int {
	for i := range c.buffers {
		if c.buffers[i].valid && c.buffers[i].set == set {
			return i
		}
	}
	return -1
}

// touchMRU moves entry i to the front of the MRU order.
func (c *wgAccountant) touchMRU(i int) {
	if i == 0 {
		return
	}
	e := c.buffers[i]
	copy(c.buffers[1:i+1], c.buffers[:i])
	c.buffers[0] = e
}
