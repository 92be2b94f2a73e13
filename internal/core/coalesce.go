package core

import (
	"cache8t/internal/trace"
)

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

// feed is Access over a whole batch.
func (c *coalesceController) feed(batch []trace.Access) {
	c.noteBatch(batch)
	for i := range batch {
		c.step(batch[i])
	}
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
