package core

import (
	"context"
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

func newMem() *mem.Memory { return mem.New() }

// runScheme runs sc over up to max accesses of s through RunSchemes, at
// batch, over shards walks.
func runScheme(sc Scheme, cfg cache.Config, s trace.Stream, max, batch, shards int) (Result, error) {
	res, err := RunSchemes(context.Background(), []Scheme{sc}, cfg, func() (trace.Stream, error) { return s, nil }, max, batch, shards)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// runOne runs kind under opts serially over up to max accesses of s.
func runOne(kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, error) {
	return runScheme(Scheme{kind, opts}, cfg, s, max, 0, 0)
}

func TestKindStringAndParse(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		parsed, err := ParseKind(name)
		if err != nil || parsed != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, parsed, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus")
	}
	if Kind(77).String() != "Kind(77)" {
		t.Error("unknown kind string")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(RMW, nil, Options{}); err == nil {
		t.Error("nil cache accepted")
	}
	c, _ := cache.New(cache.DefaultConfig(), newMem())
	if _, err := New(Kind(99), c, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := New(WG, c, Options{BufferDepth: -1}); err == nil {
		t.Error("negative depth accepted")
	}
}

// randomStream builds a reproducible stream with realistic structure: mixed
// kinds, a small hot footprint (so sets collide), occasional repeat writes of
// the same value (silent candidates).
func randomStream(seed uint64, n int, footprint uint64) []trace.Access {
	r := rng.New(seed)
	out := make([]trace.Access, 0, n)
	sizes := []uint8{1, 2, 4, 8}
	for i := 0; i < n; i++ {
		size := sizes[r.Intn(len(sizes))]
		addr := uint64(r.Intn(int(footprint/uint64(size)))) * uint64(size)
		a := trace.Access{Addr: addr, Size: size, Gap: uint32(r.Intn(5))}
		if r.Bool(0.4) {
			a.Kind = trace.Write
			if r.Bool(0.4) {
				a.Data = 0 // often silent against zeroed memory
			} else {
				a.Data = r.Uint64()
			}
		}
		out = append(out, a)
	}
	return out
}

// runAll runs accs through every kind at once, on the walk-once path.
func runAll(t *testing.T, kinds []Kind, cfg cache.Config, opts Options, accs []trace.Access) []Result {
	t.Helper()
	res, err := RunSchemes(context.Background(), Schemes(opts, kinds...), cfg,
		func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func smallCfg() cache.Config {
	// Tiny cache: lots of conflict misses, evictions inside buffered sets.
	return cache.Config{SizeBytes: 1024, Ways: 2, BlockBytes: 32, Policy: cache.LRU}
}

func TestEquivalenceAcrossControllers(t *testing.T) {
	// The DESIGN.md §5 correctness invariant: every controller is
	// observationally identical to the RMW baseline, here held to the
	// frozen reference kind by kind.
	pairs := [][2]Kind{
		{RMW, Conventional},
		{RMW, WordGranularity},
		{RMW, LocalRMW},
		{RMW, WG},
		{RMW, WGRB},
		{WG, WGRB},
	}
	for seed := uint64(1); seed <= 5; seed++ {
		stream := randomStream(seed, 4000, 8192)
		for _, p := range pairs {
			for _, k := range p {
				requireMatchesReference(t, fmt.Sprintf("seed %d", seed), k, smallCfg(), Options{}, stream)
			}
		}
	}
}

func TestEquivalenceWithDeepBuffers(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		stream := randomStream(uint64(depth)*11, 4000, 8192)
		opts := Options{BufferDepth: depth}
		requireMatchesReference(t, fmt.Sprintf("depth %d", depth), WG, smallCfg(), opts, stream)
		requireMatchesReference(t, fmt.Sprintf("depth %d", depth), WGRB, smallCfg(), opts, stream)
	}
}

func TestEquivalenceWithoutSilentElision(t *testing.T) {
	stream := randomStream(99, 4000, 8192)
	opts := Options{DisableSilentElision: true}
	requireMatchesReference(t, "no silent elision", WGRB, smallCfg(), opts, stream)
}

func TestAccessCountOrderingOnRandomStreams(t *testing.T) {
	// Counting invariants (DESIGN.md §5): WG <= RMW, WGRB <= WG; the
	// Conventional 6T reference is the floor.
	for seed := uint64(10); seed < 16; seed++ {
		stream := randomStream(seed, 8000, 16384)
		results := runAll(t, []Kind{Conventional, RMW, WG, WGRB}, smallCfg(), Options{}, stream)
		conv, rmw, wg, wgrb := results[0], results[1], results[2], results[3]
		if wg.ArrayAccesses() > rmw.ArrayAccesses() {
			t.Errorf("seed %d: WG %d > RMW %d", seed, wg.ArrayAccesses(), rmw.ArrayAccesses())
		}
		if wgrb.ArrayAccesses() > wg.ArrayAccesses() {
			t.Errorf("seed %d: WGRB %d > WG %d", seed, wgrb.ArrayAccesses(), wg.ArrayAccesses())
		}
		if conv.ArrayAccesses() > rmw.ArrayAccesses() {
			t.Errorf("seed %d: Conventional %d > RMW %d", seed, conv.ArrayAccesses(), rmw.ArrayAccesses())
		}
		// RMW inflation: exactly one extra access per write.
		if rmw.ArrayAccesses() != conv.ArrayAccesses()+rmw.Counters.DemandWrites {
			t.Errorf("seed %d: RMW inflation mismatch", seed)
		}
	}
}

func TestRMWOccupiesBothPorts(t *testing.T) {
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 1},
		{Kind: trace.Write, Addr: 64, Size: 4, Data: 2},
	}
	r, err := runOne(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events.ReadPortBusy() != 2 || r.Events.WritePortBusy() != 2 {
		t.Errorf("ports busy = %d/%d, want 2/2", r.Events.ReadPortBusy(), r.Events.WritePortBusy())
	}
}

func TestWGFreesReadPortForGroupedWrites(t *testing.T) {
	// Ten writes to the same word: RMW reads the row ten times; WG reads it
	// once (the fill) — §4.1's read-port-availability argument.
	var stream []trace.Access
	for i := 0; i < 10; i++ {
		stream = append(stream, trace.Access{Kind: trace.Write, Addr: 0, Size: 4, Data: uint64(i + 1)})
	}
	rmw, _ := runOne(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	wg, _ := runOne(WG, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if rmw.Events.ReadPortBusy() != 10 {
		t.Errorf("RMW read-port ops = %d, want 10", rmw.Events.ReadPortBusy())
	}
	if wg.Events.ReadPortBusy() != 1 {
		t.Errorf("WG read-port ops = %d, want 1 (single fill)", wg.Events.ReadPortBusy())
	}
	if wg.Counters.GroupedWrites != 9 {
		t.Errorf("GroupedWrites = %d, want 9", wg.Counters.GroupedWrites)
	}
}

func TestSilentElisionRemovesWriteback(t *testing.T) {
	// All-silent write group: with elision the buffer never writes back;
	// without it (A1 ablation) it must.
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0, Size: 8, Data: 0},
		{Kind: trace.Write, Addr: 8, Size: 8, Data: 0},
		{Kind: trace.Write, Addr: 16, Size: 8, Data: 0},
	}
	on, _ := runOne(WG, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	off, _ := runOne(WG, smallCfg(), Options{DisableSilentElision: true}, trace.FromSlice(stream), 0)
	if on.Counters.BufferWritebacks != 0 {
		t.Errorf("with elision: %d writebacks, want 0", on.Counters.BufferWritebacks)
	}
	if on.Counters.SilentWrites != 3 {
		t.Errorf("SilentWrites = %d, want 3", on.Counters.SilentWrites)
	}
	if off.Counters.BufferWritebacks != 1 {
		t.Errorf("without elision: %d writebacks, want 1", off.Counters.BufferWritebacks)
	}
	if off.ArrayAccesses() <= on.ArrayAccesses() {
		t.Error("ablation did not increase traffic")
	}
}

func TestDeeperBufferGroupsInterleavedSets(t *testing.T) {
	// Writes ping-pong between two sets: a single-entry buffer thrashes,
	// a two-entry buffer groups everything (ablation A2's mechanism).
	g := cache.MustGeometry(1024, 2, 32)
	var stream []trace.Access
	for i := 0; i < 20; i++ {
		addr := uint64((i % 2) * g.BlockBytes) // set 0 / set 1
		stream = append(stream, trace.Access{Kind: trace.Write, Addr: addr, Size: 4, Data: uint64(i)})
	}
	d1, _ := runOne(WG, smallCfg(), Options{BufferDepth: 1}, trace.FromSlice(stream), 0)
	d2, _ := runOne(WG, smallCfg(), Options{BufferDepth: 2}, trace.FromSlice(stream), 0)
	if d2.ArrayAccesses() >= d1.ArrayAccesses() {
		t.Errorf("depth 2 (%d) not better than depth 1 (%d) on ping-pong writes",
			d2.ArrayAccesses(), d1.ArrayAccesses())
	}
	if d2.Counters.GroupedWrites != 18 {
		t.Errorf("depth 2 grouped %d writes, want 18", d2.Counters.GroupedWrites)
	}
}

func TestCountFillTrafficAddsMissCosts(t *testing.T) {
	stream := randomStream(3, 2000, 65536) // big footprint: many misses
	base, _ := runOne(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	with, _ := runOne(RMW, smallCfg(), Options{CountFillTraffic: true}, trace.FromSlice(stream), 0)
	if with.ArrayAccesses() <= base.ArrayAccesses() {
		t.Error("CountFillTraffic did not add accesses")
	}
	if base.Cache.Fills == 0 {
		t.Fatal("test stream produced no fills")
	}
}

func TestStraddlingAccessFallback(t *testing.T) {
	// A write crossing a block boundary takes the conservative RMW path and
	// stays architecturally correct.
	g := cache.MustGeometry(1024, 2, 32)
	straddle := uint64(g.BlockBytes - 2)
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 7},
		{Kind: trace.Write, Addr: straddle, Size: 8, Data: 0x1122334455667788},
		{Kind: trace.Read, Addr: straddle, Size: 8},
		{Kind: trace.Read, Addr: 0, Size: 4},
	}
	requireMatchesReference(t, "straddle", WGRB, smallCfg(), Options{}, stream)
}

func TestEvictionInsideBufferedSetFlushesBuffer(t *testing.T) {
	// Fill a 2-way set completely, buffer a write, then read a third tag in
	// that set: the fill must not tear the buffered snapshot.
	g := cache.MustGeometry(1024, 2, 32)
	stride := uint64(g.Sets * g.BlockBytes)
	stream := []trace.Access{
		{Kind: trace.Read, Addr: 0, Size: 4},
		{Kind: trace.Read, Addr: stride, Size: 4},
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 42}, // buffered
		{Kind: trace.Read, Addr: 2 * stride, Size: 4},   // evicts within the set
		{Kind: trace.Read, Addr: 0, Size: 4},            // must still see 42
	}
	requireMatchesReference(t, "in-set eviction", WG, smallCfg(), Options{}, stream)
	requireMatchesReference(t, "in-set eviction", WGRB, smallCfg(), Options{}, stream)
	// Direct value check.
	c, _ := cache.New(smallCfg(), newMem())
	ctrl, _ := New(WGRB, c, Options{})
	var last uint64
	for _, a := range stream {
		last = ctrl.Access(a)
	}
	if last != 42 {
		t.Errorf("read after in-set eviction = %d, want 42", last)
	}
}

func TestWriteMissInBufferedSetFlushesBuffer(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	stride := uint64(g.Sets * g.BlockBytes)
	stream := []trace.Access{
		{Kind: trace.Read, Addr: 0, Size: 4},
		{Kind: trace.Read, Addr: stride, Size: 4},
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 1},          // buffer set 0
		{Kind: trace.Write, Addr: 2 * stride, Size: 4, Data: 2}, // same set, new tag
		{Kind: trace.Read, Addr: 0, Size: 4},
		{Kind: trace.Read, Addr: 2 * stride, Size: 4},
	}
	requireMatchesReference(t, "write miss in buffered set", WGRB, smallCfg(), Options{}, stream)
}

func TestResultDerivedFields(t *testing.T) {
	r := Result{ArrayReads: 6, ArrayWrites: 4}
	if r.ArrayAccesses() != 10 {
		t.Error("ArrayAccesses wrong")
	}
	if r.AccessesPerRequest() != 0 {
		t.Error("zero-request AccessesPerRequest should be 0")
	}
	r.Requests = trace.Stats{Reads: 4, Writes: 1}
	if got := r.AccessesPerRequest(); got != 2 {
		t.Errorf("AccessesPerRequest = %v", got)
	}
}

func TestLocalRMWMatchesRMWTrafficButFlagsLocality(t *testing.T) {
	stream := randomStream(21, 3000, 8192)
	rmw, _ := runOne(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	local, _ := runOne(LocalRMW, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if rmw.ArrayAccesses() != local.ArrayAccesses() {
		t.Errorf("LocalRMW traffic %d != RMW traffic %d", local.ArrayAccesses(), rmw.ArrayAccesses())
	}
	if !local.LocalWriteback || rmw.LocalWriteback {
		t.Error("LocalWriteback flags wrong")
	}
}

func TestWordGranularityMatchesConventionalTraffic(t *testing.T) {
	stream := randomStream(22, 3000, 8192)
	conv, _ := runOne(Conventional, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	word, _ := runOne(WordGranularity, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if conv.ArrayAccesses() != word.ArrayAccesses() {
		t.Errorf("WordGranularity %d != Conventional %d", word.ArrayAccesses(), conv.ArrayAccesses())
	}
	// But their arrays differ: word-granularity forgoes interleaving.
	if word.Events.Config().NeedsRMW() {
		t.Error("WordGranularity array should not need RMW")
	}
	if word.Events.Config().Cell != 0 && conv.Events.Config().Cell == word.Events.Config().Cell {
		t.Error("Conventional should use 6T, WordGranularity 8T")
	}
}

func TestRunRespectsMax(t *testing.T) {
	stream := randomStream(5, 100, 4096)
	r, err := runOne(RMW, smallCfg(), Options{}, trace.FromSlice(stream), 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests.Accesses() != 10 {
		t.Errorf("processed %d, want 10", r.Requests.Accesses())
	}
}

func TestTinyCacheSubarrayClamp(t *testing.T) {
	// Regression: a 2-set cache must still build (sub-arrays clamp to the
	// set count) and stay equivalent to the baseline.
	cfg := cache.Config{SizeBytes: 512, Ways: 4, BlockBytes: 64, Policy: cache.LRU}
	stream := randomStream(99, 2000, 2048)
	for _, k := range []Kind{Conventional, WordGranularity, Coalesce, WG, WGRB} {
		requireMatchesReference(t, "2-set cache", k, cfg, Options{BufferDepth: 4}, stream)
	}
	res, err := runOne(WGRB, cfg, Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Events.Config().Subarrays; got != 2 {
		t.Errorf("subarrays = %d, want 2 (clamped to set count)", got)
	}
}
