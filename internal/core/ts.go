package core

import (
	"cache8t/internal/trace"
)

// tsReplayPeriod is the deterministic mis-speculation schedule: one read in
// every tsReplayPeriod completes with wrong timing margins and replays
// through the array. 1/16 ≈ 6% sits inside the error-rate band TS Cache
// (arXiv:1904.11200) reports for aggressive low-voltage timing; being a
// fixed schedule rather than a sampled one keeps runs bit-reproducible and
// lets the replay count be derived from the ledger (ArrayReads minus
// DemandReads minus fill traffic) without a new counter.
const tsReplayPeriod = 16

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
// is not set-local (SetLocal() is false via the Kind classification) and
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

// feed is Access over a whole batch.
func (c *tsController) feed(batch []trace.Access) {
	c.noteBatch(batch)
	for i := range batch {
		c.step(batch[i])
	}
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
