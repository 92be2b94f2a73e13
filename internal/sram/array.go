package sram

import "fmt"

// Event identifies one circuit-level activity in the array or its periphery.
// Composite operations (a read access, an RMW) are sequences of these; the
// controllers in internal/core record composites, and the energy model in
// this package prices the resulting event mix.
type Event uint8

const (
	// EvPrecharge charges the read bit lines before a read (Figure 2 step 1).
	EvPrecharge Event = iota
	// EvRowRead asserts a read word line and discharges RBLs through the
	// read stacks of every cell in the row (Figure 2 step 2).
	EvRowRead
	// EvSense latches the column values at the bottom of the RBLs
	// (Figure 2 step 3).
	EvSense
	// EvOutputMux routes the selected columns to the data output,
	// discarding half-selected columns (read path only).
	EvOutputMux
	// EvWritebackMux loads write drivers: selected columns from Data-in,
	// half-selected columns from the read latches (Figure 2 step 4).
	EvWritebackMux
	// EvWriteDrive drives WBL/WBLB with the merged row (Figure 2 step 4).
	EvWriteDrive
	// EvRowWrite asserts the write word line, committing the row
	// (Figure 2 step 5).
	EvRowWrite
	// EvSetBufRead reads the Set-Buffer (small latch structure).
	EvSetBufRead
	// EvSetBufWrite writes the Set-Buffer.
	EvSetBufWrite
	// EvTagCompare probes the Tag-Buffer comparators in the controller.
	EvTagCompare
	// EvSilentCompare compares old vs new Set-Buffer content to detect
	// silent writes (§4.1).
	EvSilentCompare

	numEvents
)

var eventNames = [numEvents]string{
	"precharge", "row-read", "sense", "output-mux", "writeback-mux",
	"write-drive", "row-write", "setbuf-read", "setbuf-write",
	"tag-compare", "silent-compare",
}

// String names the event.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Events returns every defined event, in order.
func Events() []Event {
	out := make([]Event, numEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// ArrayConfig describes one SRAM macro: the data array of one cache.
type ArrayConfig struct {
	Cell CellKind
	// Rows and Cols give the logical mat dimensions (bits). For a cache,
	// Rows = sets and Cols = ways * blockBits when one set occupies one row,
	// which is the organization the Set-Buffer scheme assumes.
	Rows int
	Cols int
	// Interleave is the bit-interleaving degree: how many words share a
	// physical row (§2). Interleave > 1 with 8T cells is what forces RMW.
	Interleave int
	// Subarrays is the number of independently addressable banks the mat is
	// broken into (used by the LocalRMW ablation).
	Subarrays int
}

// Validate checks the configuration.
func (c ArrayConfig) Validate() error {
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("sram: non-positive array dimensions %dx%d", c.Rows, c.Cols)
	case c.Interleave <= 0:
		return fmt.Errorf("sram: non-positive interleave %d", c.Interleave)
	case c.Subarrays <= 0:
		return fmt.Errorf("sram: non-positive subarray count %d", c.Subarrays)
	case c.Cols%c.Interleave != 0:
		return fmt.Errorf("sram: columns %d not divisible by interleave %d", c.Cols, c.Interleave)
	case c.Rows%c.Subarrays != 0:
		return fmt.Errorf("sram: rows %d not divisible by subarrays %d", c.Rows, c.Subarrays)
	}
	return nil
}

// Bits returns the array capacity in bits.
func (c ArrayConfig) Bits() int { return c.Rows * c.Cols }

// NeedsRMW reports whether partial-row writes require read-modify-write:
// true for bit-interleaved 8T arrays (the paper's premise), false for 6T
// (half-selected cells tolerate the read bias) and for non-interleaved
// word-granularity arrays (Chang et al.).
func (c ArrayConfig) NeedsRMW() bool {
	return c.Cell == EightT && c.Interleave > 1
}

// Array is an event ledger over one SRAM macro.
type Array struct {
	cfg    ArrayConfig
	counts [numEvents]uint64
}

// NewArray validates cfg and returns an Array.
func NewArray(cfg ArrayConfig) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Array{cfg: cfg}, nil
}

// Config returns the array configuration.
func (a *Array) Config() ArrayConfig { return a.cfg }

// Record adds n occurrences of event e.
func (a *Array) Record(e Event, n uint64) { a.counts[e] += n }

// Count returns the number of recorded occurrences of e.
func (a *Array) Count(e Event) uint64 { return a.counts[e] }

// Reset zeroes all counters.
func (a *Array) Reset() { a.counts = [numEvents]uint64{} }

// Counts returns a copy of the event ledger indexed by Event, for
// checkpoint serialization.
func (a *Array) Counts() [numEvents]uint64 { return a.counts }

// RestoreCounts replaces the event ledger with one captured by Counts.
func (a *Array) RestoreCounts(counts [numEvents]uint64) { a.counts = counts }

// NumEvents is the length of the ledger returned by Counts.
const NumEvents = numEvents

// Composite operations. Each mirrors a sequence described in §2 / Figure 2.

// ReadAccess records a full array read: precharge, row read, sense, and
// output multiplexing of the selected columns.
func (a *Array) ReadAccess() {
	a.Record(EvPrecharge, 1)
	a.Record(EvRowRead, 1)
	a.Record(EvSense, 1)
	a.Record(EvOutputMux, 1)
}

// RMWReadPhase records the read half of a read-modify-write: identical to a
// read access except the output mux does not fire ("in this phase of RMW,
// multiplexers do not route data to the output") — the data lands in the
// write-back latches instead.
func (a *Array) RMWReadPhase() {
	a.Record(EvPrecharge, 1)
	a.Record(EvRowRead, 1)
	a.Record(EvSense, 1)
}

// RMWWritePhase records the write half of a read-modify-write: the
// write-back mux merges Data-in with the latched row, write drivers fire,
// and the write word line commits the row.
func (a *Array) RMWWritePhase() {
	a.Record(EvWritebackMux, 1)
	a.Record(EvWriteDrive, 1)
	a.Record(EvRowWrite, 1)
}

// RMW records a complete read-modify-write (both phases).
func (a *Array) RMW() {
	a.RMWReadPhase()
	a.RMWWritePhase()
}

// DirectWrite records a write that does not need the read phase: a 6T write,
// or a word-granularity write in a non-interleaved array.
func (a *Array) DirectWrite() {
	a.Record(EvWriteDrive, 1)
	a.Record(EvRowWrite, 1)
}

// ArrayAccesses returns the paper's "cache access" count: operations that
// occupy the SRAM array — row reads plus row writes. This is the quantity
// Figures 9-11 report reductions of.
func (a *Array) ArrayAccesses() uint64 {
	return a.counts[EvRowRead] + a.counts[EvRowWrite]
}

// ReadPortBusy returns how many operations occupied the read port (row
// reads: both demand reads and RMW read phases).
func (a *Array) ReadPortBusy() uint64 { return a.counts[EvRowRead] }

// WritePortBusy returns how many operations occupied the write port.
func (a *Array) WritePortBusy() uint64 { return a.counts[EvRowWrite] }
