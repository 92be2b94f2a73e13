package core

import (
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

func TestCoalesceEquivalence(t *testing.T) {
	for seed := uint64(80); seed < 84; seed++ {
		stream := randomStream(seed, 4000, 8192)
		requireMatchesReference(t, fmt.Sprintf("seed %d", seed), Coalesce, smallCfg(), Options{}, stream)
	}
}

func TestCoalesceMergesSameBlockWrites(t *testing.T) {
	// Four 8-byte writes filling one 32 B block: one flush RMW total.
	var stream []trace.Access
	for i := 0; i < 4; i++ {
		stream = append(stream, trace.Access{
			Kind: trace.Write, Addr: uint64(i * 8), Size: 8, Data: uint64(i + 1),
		})
	}
	res, err := runOne(Coalesce, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArrayAccesses() != 2 {
		t.Errorf("coalesced block cost %d accesses, want 2 (one RMW)", res.ArrayAccesses())
	}
	if res.Counters.GroupedWrites != 3 || res.Counters.BufferFills != 1 {
		t.Errorf("counters = %+v", res.Counters)
	}
}

func TestCoalesceSilentElision(t *testing.T) {
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0, Size: 8, Data: 0}, // silent on zeroed memory
		{Kind: trace.Write, Addr: 8, Size: 8, Data: 0},
	}
	res, err := runOne(Coalesce, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The flush still pays its merge read; only the row write is elided.
	if res.ArrayAccesses() != 1 {
		t.Errorf("all-silent block cost %d accesses, want 1 (merge read only)", res.ArrayAccesses())
	}
	if res.Counters.SilentElidedWBs != 1 {
		t.Errorf("elided = %d, want 1", res.Counters.SilentElidedWBs)
	}
}

func TestWGBeatsCoalescerOnSetLocality(t *testing.T) {
	// Writes walking all four blocks of one set (different tags, same set):
	// the set-granular Set-Buffer groups them after residency is
	// established; the block-granular coalescer flushes at every block
	// boundary. This is the A4 ablation's core claim.
	g := cache.MustGeometry(1024, 2, 32)
	stride := uint64(g.Sets * g.BlockBytes) // same set, next tag
	var stream []trace.Access
	// Establish residency for both ways first (reads), then write
	// alternating between the two resident blocks of set 0.
	stream = append(stream,
		trace.Access{Kind: trace.Read, Addr: 0, Size: 8},
		trace.Access{Kind: trace.Read, Addr: stride, Size: 8},
	)
	for i := 0; i < 16; i++ {
		addr := uint64(i%2) * stride
		stream = append(stream, trace.Access{
			Kind: trace.Write, Addr: addr + uint64(i/2*8)%32, Size: 8, Data: uint64(i + 1),
		})
	}
	wg, err := runOne(WG, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	co, err := runOne(Coalesce, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if wg.ArrayAccesses() >= co.ArrayAccesses() {
		t.Errorf("WG %d accesses not below Coalesce %d on alternating-block set writes",
			wg.ArrayAccesses(), co.ArrayAccesses())
	}
}

func TestCoalesceCostBetweenConventionalAndRMW(t *testing.T) {
	for seed := uint64(90); seed < 94; seed++ {
		stream := randomStream(seed, 6000, 16384)
		res := runAll(t, []Kind{Conventional, Coalesce, RMW}, smallCfg(), Options{}, stream)
		conv, co, rmw := res[0].ArrayAccesses(), res[1].ArrayAccesses(), res[2].ArrayAccesses()
		if co > rmw {
			t.Errorf("seed %d: coalescer %d worse than raw RMW %d", seed, co, rmw)
		}
		_ = conv // conventional is a 6T reference, not a bound for 8T schemes
	}
}

func TestCoalesceReadToPendingBlockFlushes(t *testing.T) {
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0, Size: 8, Data: 5},
		{Kind: trace.Read, Addr: 8, Size: 8}, // same block: must flush first
	}
	res, err := runOne(Coalesce, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flush RMW (2) + demand read (1).
	if res.ArrayAccesses() != 3 {
		t.Errorf("accesses = %d, want 3", res.ArrayAccesses())
	}
	if res.Counters.BufferWritebacks != 1 {
		t.Errorf("writebacks = %d, want 1", res.Counters.BufferWritebacks)
	}
}
