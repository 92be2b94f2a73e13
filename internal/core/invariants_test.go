package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"cache8t/internal/trace"
)

// The controllers' counters are not independent: the microarchitecture
// forces exact identities between them. These tests pin the identities on
// random aligned streams (the straddle fallback, which breaks them by
// design, cannot trigger on aligned accesses).

func TestWGRBCounterIdentities(t *testing.T) {
	for seed := uint64(40); seed < 46; seed++ {
		stream := randomStream(seed, 6000, 8192)
		res, err := runOne(WGRB, smallCfg(), Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		// Every demand write either joined a group or triggered a fill.
		if c.GroupedWrites+c.BufferFills != c.DemandWrites {
			t.Errorf("seed %d: grouped %d + fills %d != writes %d",
				seed, c.GroupedWrites, c.BufferFills, c.DemandWrites)
		}
		// Array reads = demand reads that weren't bypassed + row reads
		// filling the Set-Buffer.
		if res.ArrayReads != c.DemandReads-c.BypassedReads+c.BufferFills {
			t.Errorf("seed %d: array reads %d != %d - %d + %d",
				seed, res.ArrayReads, c.DemandReads, c.BypassedReads, c.BufferFills)
		}
		// Every array write is a Set-Buffer write-back.
		if res.ArrayWrites != c.BufferWritebacks {
			t.Errorf("seed %d: array writes %d != buffer write-backs %d",
				seed, res.ArrayWrites, c.BufferWritebacks)
		}
		// Under WG+RB every read tag hit bypasses and every write tag hit
		// groups.
		if c.TagHits != c.GroupedWrites+c.BypassedReads {
			t.Errorf("seed %d: tag hits %d != grouped %d + bypassed %d",
				seed, c.TagHits, c.GroupedWrites, c.BypassedReads)
		}
		// One tag probe per request.
		if c.TagProbes != c.DemandReads+c.DemandWrites {
			t.Errorf("seed %d: probes %d != requests %d",
				seed, c.TagProbes, c.DemandReads+c.DemandWrites)
		}
		// WG+RB never writes back prematurely.
		if c.PrematureWBs != 0 {
			t.Errorf("seed %d: WG+RB premature write-backs = %d", seed, c.PrematureWBs)
		}
	}
}

func TestWGCounterIdentities(t *testing.T) {
	for seed := uint64(50); seed < 56; seed++ {
		stream := randomStream(seed, 6000, 8192)
		res, err := runOne(WG, smallCfg(), Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		if c.GroupedWrites+c.BufferFills != c.DemandWrites {
			t.Errorf("seed %d: grouped %d + fills %d != writes %d",
				seed, c.GroupedWrites, c.BufferFills, c.DemandWrites)
		}
		// WG never bypasses: every demand read hits the array.
		if c.BypassedReads != 0 {
			t.Errorf("seed %d: WG bypassed %d reads", seed, c.BypassedReads)
		}
		if res.ArrayReads != c.DemandReads+c.BufferFills {
			t.Errorf("seed %d: array reads %d != %d + %d",
				seed, res.ArrayReads, c.DemandReads, c.BufferFills)
		}
		if res.ArrayWrites != c.BufferWritebacks {
			t.Errorf("seed %d: array writes %d != write-backs %d",
				seed, res.ArrayWrites, c.BufferWritebacks)
		}
		if c.PrematureWBs > c.BufferWritebacks {
			t.Errorf("seed %d: premature %d exceeds total write-backs %d",
				seed, c.PrematureWBs, c.BufferWritebacks)
		}
	}
}

func TestGroupSizeHistogramConsistency(t *testing.T) {
	for seed := uint64(60); seed < 64; seed++ {
		stream := randomStream(seed, 6000, 8192)
		res, err := runOne(WG, smallCfg(), Options{}, trace.FromSlice(stream), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		var groups uint64
		for _, g := range c.GroupSizes {
			groups += g
		}
		// Every fill opens exactly one group, and Finalize closes them all.
		if groups != c.BufferFills {
			t.Errorf("seed %d: %d groups recorded, %d fills", seed, groups, c.BufferFills)
		}
		if groups > 0 {
			mean := c.MeanGroupSize()
			if mean < 1 {
				t.Errorf("seed %d: mean group size %.3f below 1", seed, mean)
			}
			// Mean must be consistent with total buffered writes.
			want := float64(c.GroupedWrites+c.BufferFills) / float64(groups)
			if mean != want {
				t.Errorf("seed %d: MeanGroupSize %.4f != %.4f", seed, mean, want)
			}
		}
	}
}

func TestRMWEventIdentities(t *testing.T) {
	stream := randomStream(70, 6000, 8192)
	res, err := runOne(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if res.ArrayReads != c.DemandReads+c.DemandWrites {
		t.Errorf("RMW array reads %d != reads %d + writes %d",
			res.ArrayReads, c.DemandReads, c.DemandWrites)
	}
	if res.ArrayWrites != c.DemandWrites {
		t.Errorf("RMW array writes %d != demand writes %d", res.ArrayWrites, c.DemandWrites)
	}
	if c.TagProbes != 0 || c.TagHits != 0 {
		t.Error("RMW has no Tag-Buffer but probed it")
	}
}

func TestMeanGroupSizeZeroGuard(t *testing.T) {
	if (Counters{}).MeanGroupSize() != 0 {
		t.Fatal("empty counters produced a group size")
	}
}

// TestEquivalenceQuick drives the equivalence invariant through
// testing/quick: arbitrary seeds produce arbitrary request streams, and the
// paper's controllers must stay observationally identical to RMW on all of
// them.
func TestEquivalenceQuick(t *testing.T) {
	f := func(seed uint64, depthSel uint8, noSilent bool) bool {
		stream := randomStream(seed, 800, 4096)
		opts := Options{
			BufferDepth:          []int{1, 2, 4}[depthSel%3],
			DisableSilentElision: noSilent,
		}
		for _, k := range []Kind{WG, WGRB, Coalesce} {
			requireMatchesReference(t, fmt.Sprintf("seed %d, opts %+v", seed, opts), k, smallCfg(), opts, stream)
		}
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReductionBoundsQuick: for any stream, the reductions stay within their
// provable bounds — WG and WG+RB never exceed RMW's traffic, and WG+RB's
// array reads never exceed demand reads plus fills.
func TestReductionBoundsQuick(t *testing.T) {
	f := func(seed uint64) bool {
		stream := randomStream(seed, 1000, 8192)
		res := runAll(t, []Kind{RMW, WG, WGRB}, smallCfg(), Options{}, stream)
		rmw, wg, rb := res[0], res[1], res[2]
		if wg.ArrayAccesses() > rmw.ArrayAccesses() || rb.ArrayAccesses() > wg.ArrayAccesses() {
			return false
		}
		c := rb.Counters
		return rb.ArrayReads <= c.DemandReads+c.BufferFills
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
