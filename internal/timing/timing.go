// Package timing puts numbers on the paper's §5.5 performance commentary
// with a deterministic analytical model over a run's event counts.
//
// The model assumes an in-order core issuing one instruction per cycle, an
// 8T array whose separate read/write word lines allow one read and one write
// per cycle — except that an RMW's read phase occupies the read port, which
// is precisely the conflict the paper blames RMW for. Reads are on the
// critical path (their latency beyond one cycle stalls the core); writes are
// buffered and off the critical path, costing only port conflicts.
package timing

import (
	"fmt"

	"cache8t/internal/core"
)

// Params are the latency assumptions, in cycles.
type Params struct {
	// ArrayReadLatency is a demand read served by the SRAM array
	// (precharge + row read / sense).
	ArrayReadLatency int
	// SetBufLatency is a read served from the Set-Buffer (a latch row next
	// to the write drivers; §5.5: "access latency to the Set-Buffer is less
	// than the cache latency").
	SetBufLatency int
	// Subarrays is the bank count used to discount conflicts for
	// LocalRMW-style results (Park et al. contain the write-back to one
	// sub-array, so only reads targeting that bank conflict).
	Subarrays int
}

// DefaultParams returns the latencies used throughout the experiments:
// 2-cycle array reads, 1-cycle Set-Buffer hits, 4 sub-arrays.
func DefaultParams() Params {
	return Params{ArrayReadLatency: 2, SetBufLatency: 1, Subarrays: 4}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.ArrayReadLatency < 1:
		return fmt.Errorf("timing: ArrayReadLatency %d < 1", p.ArrayReadLatency)
	case p.SetBufLatency < 1:
		return fmt.Errorf("timing: SetBufLatency %d < 1", p.SetBufLatency)
	case p.SetBufLatency > p.ArrayReadLatency:
		return fmt.Errorf("timing: Set-Buffer slower than the array (%d > %d)",
			p.SetBufLatency, p.ArrayReadLatency)
	case p.Subarrays < 1:
		return fmt.Errorf("timing: Subarrays %d < 1", p.Subarrays)
	}
	return nil
}

// Report is the modeled performance of one run.
type Report struct {
	// Instructions is the ideal-core cycle count (1 IPC, zero-latency
	// memory).
	Instructions uint64
	// ReadStallCycles is the exposed read latency beyond one cycle.
	ReadStallCycles float64
	// ConflictStallCycles models demand reads delayed because a write-path
	// row read (RMW read phase or Set-Buffer fill) held the read port.
	ConflictStallCycles float64
	// Cycles is the modeled total.
	Cycles float64
	// AvgReadLatency is the mean demand-read latency in cycles.
	AvgReadLatency float64
	// ReadPortUtilization and WritePortUtilization are port-busy fractions
	// of total cycles.
	ReadPortUtilization  float64
	WritePortUtilization float64
}

// CPI returns modeled cycles per instruction.
func (r Report) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.Cycles / float64(r.Instructions)
}

// Evaluate models the run described by res under params.
func Evaluate(res core.Result, params Params) (Report, error) {
	if err := params.Validate(); err != nil {
		return Report{}, err
	}
	instr := res.Requests.Instructions
	demandReads := res.Counters.DemandReads
	bypassed := res.Counters.BypassedReads
	arrayDemandReads := demandReads - bypassed

	rep := Report{Instructions: instr}

	// Exposed read latency: every demand read costs its latency; one cycle
	// of it is the issue slot already counted in Instructions.
	rep.ReadStallCycles = float64(arrayDemandReads)*float64(params.ArrayReadLatency-1) +
		float64(bypassed)*float64(params.SetBufLatency-1)
	if demandReads > 0 {
		rep.AvgReadLatency = (float64(arrayDemandReads)*float64(params.ArrayReadLatency) +
			float64(bypassed)*float64(params.SetBufLatency)) / float64(demandReads)
	}

	// Write-path row reads steal the read port from demand reads. Each one
	// collides with a demand read with probability equal to the demand-read
	// density; Park-style local write-back confines the collision to one of
	// Subarrays banks.
	writePathReads := res.Events.ReadPortBusy() - arrayDemandReads
	if instr > 0 {
		density := float64(demandReads) / float64(instr)
		conflicts := float64(writePathReads) * density
		if res.LocalWriteback {
			conflicts /= float64(params.Subarrays)
		}
		rep.ConflictStallCycles = conflicts
	}

	rep.Cycles = float64(instr) + rep.ReadStallCycles + rep.ConflictStallCycles
	if rep.Cycles > 0 {
		rep.ReadPortUtilization = float64(res.Events.ReadPortBusy()) / rep.Cycles
		rep.WritePortUtilization = float64(res.Events.WritePortBusy()) / rep.Cycles
	}
	return rep, nil
}
