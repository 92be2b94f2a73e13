package core

import (
	"cache8t/internal/trace"
)

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

// feed is Access over a whole batch.
func (c *directController) feed(batch []trace.Access) {
	c.noteBatch(batch)
	for i := range batch {
		c.step(batch[i])
	}
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

// feed is Access over a whole batch.
func (c *rmwController) feed(batch []trace.Access) {
	c.noteBatch(batch)
	for i := range batch {
		c.step(batch[i])
	}
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
