package core

import (
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

func noAllocCfg() cache.Config {
	cfg := smallCfg()
	cfg.NoWriteAllocate = true
	return cfg
}

func TestNoAllocEquivalenceAcrossControllers(t *testing.T) {
	// The architectural contract holds under write-around too.
	for seed := uint64(120); seed < 125; seed++ {
		stream := randomStream(seed, 5000, 8192)
		for _, k := range []Kind{Conventional, WordGranularity, Coalesce, WG, WGRB} {
			requireMatchesReference(t, fmt.Sprintf("seed %d", seed), k, noAllocCfg(), Options{}, stream)
		}
	}
}

func TestNoAllocWriteMissBypassesArray(t *testing.T) {
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0x100, Size: 8, Data: 42}, // miss: write-around
		{Kind: trace.Read, Addr: 0x100, Size: 8},            // miss: fills, reads 42
	}
	res, err := runOne(RMW, noAllocCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the read touched the array.
	if res.ArrayAccesses() != 1 || res.ArrayWrites != 0 {
		t.Errorf("accesses = %d reads / %d writes, want 1/0", res.ArrayReads, res.ArrayWrites)
	}
	if res.Cache.WriteMisses != 1 {
		t.Errorf("write misses = %d", res.Cache.WriteMisses)
	}
	// Value visible after the fill.
	c, _ := cache.New(noAllocCfg(), newMem())
	ctrl, _ := New(WGRB, c, Options{})
	ctrl.Access(stream[0])
	if got := ctrl.Access(stream[1]); got != 42 {
		t.Errorf("read after write-around = %d", got)
	}
}

func TestNoAllocWriteHitStillGroups(t *testing.T) {
	// Resident writes behave exactly as under allocate: fill once, group.
	stream := []trace.Access{
		{Kind: trace.Read, Addr: 0, Size: 8}, // bring the block in
		{Kind: trace.Write, Addr: 0, Size: 8, Data: 1},
		{Kind: trace.Write, Addr: 8, Size: 8, Data: 2},
		{Kind: trace.Write, Addr: 16, Size: 8, Data: 3},
	}
	res, err := runOne(WG, noAllocCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.GroupedWrites != 2 || res.Counters.BufferFills != 1 {
		t.Errorf("counters = %+v", res.Counters)
	}
}

func TestNoAllocReducesWriteTraffic(t *testing.T) {
	// On a miss-heavy stream, write-around removes RMWs that allocate-mode
	// must perform.
	stream := randomStream(130, 6000, 1<<20) // huge footprint: mostly misses
	alloc, err := runOne(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	noalloc, err := runOne(RMW, noAllocCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if noalloc.ArrayWrites >= alloc.ArrayWrites {
		t.Errorf("no-allocate writes %d not below allocate %d",
			noalloc.ArrayWrites, alloc.ArrayWrites)
	}
}

func TestNoAllocStraddlingWriteAround(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	straddle := uint64(g.BlockBytes - 4)
	stream := []trace.Access{
		{Kind: trace.Read, Addr: uint64(g.BlockBytes), Size: 8},                // second block resident
		{Kind: trace.Write, Addr: straddle, Size: 8, Data: 0xa1b2c3d4e5f60718}, // first block miss
		{Kind: trace.Read, Addr: straddle, Size: 8},
	}
	for _, k := range []Kind{RMW, WG, WGRB, Coalesce, Conventional} {
		requireMatchesReference(t, "straddling write-around", k, noAllocCfg(), Options{}, stream)
	}
	c, _ := cache.New(noAllocCfg(), newMem())
	ctrl, _ := New(WG, c, Options{})
	var last uint64
	for _, a := range stream {
		last = ctrl.Access(a)
	}
	if last != 0xa1b2c3d4e5f60718 {
		t.Errorf("straddling write-around read back %#x", last)
	}
}
