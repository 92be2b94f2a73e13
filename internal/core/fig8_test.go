package core

import (
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

// Fig8Stream reconstructs the paper's §4.3 worked example: requests to two
// sets a and b, arrival order Ra Wb Wb Rb Rb Wb Wa Rb Ra, with the single
// write to set a silent. Exported within the package for reuse by the
// experiments harness via a tiny wrapper there.
func fig8Stream(g cache.Geometry) []trace.Access {
	// Two addresses in distinct sets.
	addrA := uint64(0)            // set 0
	addrB := uint64(g.BlockBytes) // set 1
	r := func(addr uint64) trace.Access {
		return trace.Access{Kind: trace.Read, Addr: addr, Size: 4}
	}
	w := func(addr, val uint64) trace.Access {
		return trace.Access{Kind: trace.Write, Addr: addr, Size: 4, Data: val}
	}
	return []trace.Access{
		r(addrA),    // Ra: Tag-Buffer empty, cache read
		w(addrB, 1), // Wb: fill Set-Buffer (row read), non-silent
		w(addrB, 2), // Wb: grouped
		r(addrB),    // Rb: premature write-back + array read
		r(addrB),    // Rb: Dirty clear, array read only
		w(addrB, 3), // Wb: grouped, Dirty set again
		w(addrA, 0), // Wa: evicts buffer (write-back) + fill; SILENT (memory is 0)
		r(addrB),    // Rb: Tag-Buffer miss (buffer holds a), array read
		r(addrA),    // Ra: Tag-Buffer hit, Dirty clear -> no write-back
	}
}

func fig8Results(t *testing.T) map[Kind]Result {
	t.Helper()
	cfg := cache.DefaultConfig()
	stream := fig8Stream(cache.MustGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes))
	out := make(map[Kind]Result)
	for _, k := range []Kind{Conventional, RMW, WG, WGRB} {
		r, err := runOne(k, cfg, Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = r
	}
	return out
}

func TestFig8ExampleAccessTotals(t *testing.T) {
	rs := fig8Results(t)
	// 5 reads + 4 writes.
	if got := rs[Conventional].ArrayAccesses(); got != 9 {
		t.Errorf("Conventional = %d array accesses, want 9", got)
	}
	// RMW: 5 reads + 4 writes x 2.
	if got := rs[RMW].ArrayAccesses(); got != 13 {
		t.Errorf("RMW = %d array accesses, want 13", got)
	}
	// WG walkthrough (§4.3): Ra read, Wb fill, Rb write-back+read, Rb read,
	// Wa write-back+fill, Rb read, Ra nothing = 9.
	if got := rs[WG].ArrayAccesses(); got != 9 {
		t.Errorf("WG = %d array accesses, want 9", got)
	}
	// WG+RB additionally bypasses the two middle Rb and the final Ra = 5.
	if got := rs[WGRB].ArrayAccesses(); got != 5 {
		t.Errorf("WG+RB = %d array accesses, want 5", got)
	}
}

func TestFig8ExampleWGCounters(t *testing.T) {
	c := fig8Results(t)[WG].Counters
	if c.DemandReads != 5 || c.DemandWrites != 4 {
		t.Errorf("demand counts = %d/%d", c.DemandReads, c.DemandWrites)
	}
	if c.GroupedWrites != 2 {
		t.Errorf("GroupedWrites = %d, want 2 (second and third Wb)", c.GroupedWrites)
	}
	if c.SilentWrites != 1 {
		t.Errorf("SilentWrites = %d, want 1 (Wa)", c.SilentWrites)
	}
	if c.BufferFills != 2 {
		t.Errorf("BufferFills = %d, want 2 (first Wb, Wa)", c.BufferFills)
	}
	if c.BufferWritebacks != 2 {
		t.Errorf("BufferWritebacks = %d, want 2 (before Rb pair, before Wa fill)", c.BufferWritebacks)
	}
	if c.PrematureWBs != 1 {
		t.Errorf("PrematureWBs = %d, want 1 (first Rb)", c.PrematureWBs)
	}
	// Dirty-clear checks that skipped a write-back: second Rb, final Ra,
	// and the Finalize drain of the clean set-a buffer.
	if c.SilentElidedWBs != 3 {
		t.Errorf("SilentElidedWBs = %d, want 3", c.SilentElidedWBs)
	}
	if c.TagHits != 5 {
		t.Errorf("TagHits = %d, want 5 (Wb, Rb, Rb, Wb, Ra)", c.TagHits)
	}
}

func TestFig8ExampleWGRBCounters(t *testing.T) {
	c := fig8Results(t)[WGRB].Counters
	if c.BypassedReads != 3 {
		t.Errorf("BypassedReads = %d, want 3 (Rb, Rb, Ra)", c.BypassedReads)
	}
	// With the Rb pair bypassed, no premature write-back ever happens; the
	// only write-back is the one before Wa's fill.
	if c.PrematureWBs != 0 {
		t.Errorf("PrematureWBs = %d, want 0", c.PrematureWBs)
	}
	if c.BufferWritebacks != 1 {
		t.Errorf("BufferWritebacks = %d, want 1", c.BufferWritebacks)
	}
	if c.GroupedWrites != 2 || c.SilentWrites != 1 {
		t.Errorf("grouped/silent = %d/%d", c.GroupedWrites, c.SilentWrites)
	}
}

func TestFig8ReductionOrdering(t *testing.T) {
	rs := fig8Results(t)
	if !(rs[WGRB].ArrayAccesses() < rs[WG].ArrayAccesses() &&
		rs[WG].ArrayAccesses() < rs[RMW].ArrayAccesses()) {
		t.Errorf("ordering violated: RMW=%d WG=%d WGRB=%d",
			rs[RMW].ArrayAccesses(), rs[WG].ArrayAccesses(), rs[WGRB].ArrayAccesses())
	}
}

func TestFig8ArchitecturalValues(t *testing.T) {
	// Every controller must read back the values the stream wrote.
	cfg := cache.DefaultConfig()
	g := cache.MustGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	stream := fig8Stream(g)
	for _, k := range []Kind{Conventional, RMW, WG, WGRB} {
		c, err := cache.New(cfg, newMem())
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(k, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, a := range stream {
			got = append(got, ctrl.Access(a))
		}
		// Rb after the third Wb must observe 3; final Ra must observe 0.
		if got[7] != 3 {
			t.Errorf("%v: Rb after Wb=3 returned %d", k, got[7])
		}
		if got[8] != 0 {
			t.Errorf("%v: final Ra returned %d", k, got[8])
		}
		ctrl.Finalize()
	}
}
