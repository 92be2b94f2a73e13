package hier

import (
	"context"
	"reflect"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

// This file holds the hierarchy's differential oracle: a naive two-level
// reference model, written independently of internal/cache and internal/core
// (its own index arithmetic, its own LRU order lists, plain byte-map
// memories), that replays the demand trace through a reference L1 and feeds
// the same refill/write-back synthesis rule into a reference L2. The
// optimized hierarchy must match it event for event and stat for stat.

// naiveCache is a write-allocate, write-back, true-LRU set-associative cache
// over a sparse byte memory, emitting the refill/write-back event stream.
type naiveCache struct {
	block uint64
	sets  int
	ways  int
	mem   map[uint64]byte
	lines [][]naiveLine
	order [][]int // per-set way order, most recently used first
	stats cache.Stats
	onWB  func(base uint64, data []byte)
	onRF  func(base uint64)
}

type naiveLine struct {
	valid bool
	dirty bool
	tag   uint64
	data  []byte
}

func newNaiveCache(cfg cache.Config) *naiveCache {
	sets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	n := &naiveCache{
		block: uint64(cfg.BlockBytes),
		sets:  sets,
		ways:  cfg.Ways,
		mem:   map[uint64]byte{},
		lines: make([][]naiveLine, sets),
		order: make([][]int, sets),
	}
	for s := range n.lines {
		n.lines[s] = make([]naiveLine, cfg.Ways)
		for w := range n.lines[s] {
			n.lines[s][w].data = make([]byte, cfg.BlockBytes)
		}
		n.order[s] = make([]int, cfg.Ways)
		for w := range n.order[s] {
			n.order[s][w] = w
		}
	}
	return n
}

func (n *naiveCache) set(addr uint64) int    { return int((addr / n.block) % uint64(n.sets)) }
func (n *naiveCache) tag(addr uint64) uint64 { return addr / n.block / uint64(n.sets) }
func (n *naiveCache) base(set int, tag uint64) uint64 {
	return (tag*uint64(n.sets) + uint64(set)) * n.block
}

func (n *naiveCache) touch(set, way int) {
	ord := n.order[set]
	for i, w := range ord {
		if w == way {
			copy(ord[1:i+1], ord[:i])
			ord[0] = way
			return
		}
	}
}

// ensure makes addr's block resident, updating stats, firing the victim
// write-back (if any) strictly before the refill, exactly as the real cache
// does.
func (n *naiveCache) ensure(addr uint64, isWrite bool) (set, way int) {
	set = n.set(addr)
	tag := n.tag(addr)
	for w := range n.lines[set] {
		if n.lines[set][w].valid && n.lines[set][w].tag == tag {
			if isWrite {
				n.stats.WriteHits++
			} else {
				n.stats.ReadHits++
			}
			n.touch(set, w)
			return set, w
		}
	}
	if isWrite {
		n.stats.WriteMisses++
	} else {
		n.stats.ReadMisses++
	}
	way = -1
	for w := range n.lines[set] {
		if !n.lines[set][w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = n.order[set][n.ways-1] // true LRU victim
		n.evict(set, way)
	}
	l := &n.lines[set][way]
	base := n.base(set, tag)
	for i := range l.data {
		l.data[i] = n.mem[base+uint64(i)]
	}
	l.valid, l.dirty, l.tag = true, false, tag
	n.stats.Fills++
	if n.onRF != nil {
		n.onRF(base)
	}
	n.touch(set, way)
	return set, way
}

func (n *naiveCache) evict(set, way int) {
	l := &n.lines[set][way]
	if !l.valid {
		return
	}
	if l.dirty {
		base := n.base(set, l.tag)
		for i, b := range l.data {
			n.mem[base+uint64(i)] = b
		}
		n.stats.Writebacks++
		if n.onWB != nil {
			n.onWB(base, l.data)
		}
	}
	l.valid, l.dirty = false, false
	n.stats.Evictions++
}

// access replays one aligned demand access (no block straddle).
func (n *naiveCache) access(a trace.Access) {
	set, way := n.ensure(a.Addr, a.Kind == trace.Write)
	l := &n.lines[set][way]
	off := a.Addr % n.block
	if a.Kind == trace.Read {
		return
	}
	for i := uint64(0); i < uint64(a.Size); i++ {
		b := byte(a.Data >> (8 * i))
		if l.data[off+i] != b {
			l.data[off+i] = b
			l.dirty = true
		}
	}
}

// runNaiveHier replays accs through the naive L1, synthesizing L2 accesses
// with the package's documented rule, and returns both models plus the
// interleaved event stream.
func runNaiveHier(l1cfg, l2cfg cache.Config, accs []trace.Access) (l1, l2 *naiveCache, events []Event, counts Counts) {
	l1 = newNaiveCache(l1cfg)
	l2 = newNaiveCache(l2cfg)
	l1.onRF = func(base uint64) {
		counts.Refills++
		events = append(events, Event{Kind: EvRefill, Addr: base})
		l2.access(trace.Access{Kind: trace.Read, Addr: base, Size: 8})
	}
	l1.onWB = func(base uint64, data []byte) {
		var word uint64
		for i := 0; i < 8; i++ {
			word |= uint64(data[i]) << (8 * i)
		}
		counts.Writebacks++
		events = append(events, Event{Kind: EvWriteback, Addr: base, Data: word})
		l2.access(trace.Access{Kind: trace.Write, Addr: base, Size: 8, Data: word})
	}
	for _, a := range accs {
		l1.access(a)
	}
	return l1, l2, events, counts
}

func hierStream(seed uint64, n int, footprint uint64) []trace.Access {
	r := rng.New(seed)
	out := make([]trace.Access, 0, n)
	sizes := []uint8{1, 2, 4, 8}
	for i := 0; i < n; i++ {
		size := sizes[r.Intn(len(sizes))]
		addr := uint64(r.Intn(int(footprint/uint64(size)))) * uint64(size)
		a := trace.Access{Addr: addr, Size: size, Gap: uint32(r.Intn(5))}
		if r.Bool(0.4) {
			a.Kind = trace.Write
			if !r.Bool(0.4) {
				a.Data = r.Uint64()
			}
		}
		out = append(out, a)
	}
	return out
}

func testConfig() Config {
	return Config{
		L1Schemes: []core.Scheme{{Kind: core.RMW}},
		L1:        cache.Config{SizeBytes: 1024, Ways: 2, BlockBytes: 32, Policy: cache.LRU},
		L2Kind:    core.RMW,
		L2:        cache.Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, Policy: cache.LRU},
	}
}

// runOne runs cfg, whose L1 has one scheme, over up to max accesses of s.
func runOne(cfg Config, s trace.Stream, max, batch int) (Result, error) {
	res, err := RunContext(context.Background(), cfg, s, max, batch)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// TestDifferentialOracle is the hierarchy's §5-style contract: against the
// independent naive two-level model, the optimized run must produce the
// identical interleaved event stream (kinds, block addresses, victim words,
// in order), identical L1 and L2 functional stats, and identical traffic
// totals.
func TestDifferentialOracle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := testConfig()
		accs := hierStream(seed, 4000, 1<<13)
		var got []Event
		cfg.Observer = func(e Event) { got = append(got, e) }
		res, err := runOne(cfg, trace.FromSlice(accs), 0, 17)
		if err != nil {
			t.Fatal(err)
		}
		refL1, refL2, want, wantCounts := runNaiveHier(cfg.L1, cfg.L2, accs)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: event %d: got %+v want %+v (lens %d/%d)",
						seed, i, at(got, i), at(want, i), len(got), len(want))
				}
			}
			t.Fatalf("seed %d: event stream longer than reference: %d vs %d", seed, len(got), len(want))
		}
		if res.L1.Cache != refL1.stats {
			t.Errorf("seed %d: L1 stats: got %+v want %+v", seed, res.L1.Cache, refL1.stats)
		}
		if res.L2.Cache != refL2.stats {
			t.Errorf("seed %d: L2 stats: got %+v want %+v", seed, res.L2.Cache, refL2.stats)
		}
		if res.Traffic != wantCounts {
			t.Errorf("seed %d: traffic: got %+v want %+v", seed, res.Traffic, wantCounts)
		}
		if res.L2.Requests.Reads != res.Traffic.Refills || res.L2.Requests.Writes != res.Traffic.Writebacks {
			t.Errorf("seed %d: L2 demand stream %d/%d does not match traffic %+v",
				seed, res.L2.Requests.Reads, res.L2.Requests.Writes, res.Traffic)
		}
	}
}

func at(events []Event, i int) Event {
	if i < len(events) {
		return events[i]
	}
	return Event{Kind: 255}
}

// TestKindIndependentFunctionalStream: every L1 controller leaves the same
// refill/write-back stream (the architectural contract), so the L2 result is
// identical across L1 kinds; only the premature write-back component — and
// with it L2Visible — may differ, and only for the WG family. Each kind runs
// in its own hierarchy here, and one hierarchy serving every kind at once
// must reproduce each of those runs.
func TestKindIndependentFunctionalStream(t *testing.T) {
	accs := hierStream(3, 6000, 1<<13)
	run := func(schemes ...core.Scheme) []Result {
		cfg := testConfig()
		cfg.L1Schemes = schemes
		res, err := RunContext(context.Background(), cfg, trace.FromSlice(accs), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseRes := run(core.Scheme{Kind: core.RMW})[0]
	if baseRes.Traffic.PrematureWBs != 0 {
		t.Fatalf("RMW produced premature write-backs: %+v", baseRes.Traffic)
	}
	all := run(core.Schemes(core.Options{}, core.Kinds()...)...)
	var wgPWB uint64
	for i, k := range core.Kinds() {
		res := run(core.Scheme{Kind: k})[0]
		if !reflect.DeepEqual(all[i], res) {
			t.Errorf("%v: one hierarchy of every kind differs from the kind's own run", k)
		}
		if res.Traffic.Refills != baseRes.Traffic.Refills || res.Traffic.Writebacks != baseRes.Traffic.Writebacks {
			t.Errorf("%v: functional stream diverged: %+v vs %+v", k, res.Traffic, baseRes.Traffic)
		}
		if res.L2.Cache != baseRes.L2.Cache || res.L2.ArrayReads != baseRes.L2.ArrayReads ||
			res.L2.ArrayWrites != baseRes.L2.ArrayWrites {
			t.Errorf("%v: L2 result diverged", k)
		}
		if res.Traffic.PrematureWBs != res.L1.Counters.PrematureWBs {
			t.Errorf("%v: traffic premature count %d != controller counter %d",
				k, res.Traffic.PrematureWBs, res.L1.Counters.PrematureWBs)
		}
		switch k {
		case core.WG:
			// WG pays a premature write-back for every read that interrupts
			// a buffered write group.
			wgPWB = res.Traffic.PrematureWBs
			if wgPWB == 0 {
				t.Errorf("WG: expected premature write-backs on a read/write-mixed trace")
			}
			if res.L2Visible() <= baseRes.L2Visible() {
				t.Errorf("WG: L2Visible %d not above RMW's %d", res.L2Visible(), baseRes.L2Visible())
			}
		case core.WGRB:
			// The RB mux serves interrupting reads straight from the
			// Set-Buffer, eliminating the premature write-back entirely —
			// WG+RB's downstream profile collapses back to the baseline's.
			if res.Traffic.PrematureWBs != 0 {
				t.Errorf("WGRB: read bypass left %d premature write-backs", res.Traffic.PrematureWBs)
			}
			if res.L2Visible() != baseRes.L2Visible() {
				t.Errorf("WGRB: L2Visible %d != RMW's %d", res.L2Visible(), baseRes.L2Visible())
			}
		default:
			if res.Traffic.PrematureWBs != 0 {
				t.Errorf("%v: unexpected premature write-backs: %d", k, res.Traffic.PrematureWBs)
			}
			if res.L2Visible() != baseRes.L2Visible() {
				t.Errorf("%v: L2Visible %d != RMW's %d", k, res.L2Visible(), baseRes.L2Visible())
			}
		}
	}
}

// TestDeterminism: same config, same trace, different batch sizes — results
// and event streams must be identical.
func TestDeterminism(t *testing.T) {
	accs := hierStream(7, 3000, 1<<12)
	run := func(batch int) (Result, []Event) {
		cfg := testConfig()
		cfg.L1Schemes = []core.Scheme{{Kind: core.WGRB}}
		var ev []Event
		cfg.Observer = func(e Event) { ev = append(ev, e) }
		res, err := runOne(cfg, trace.FromSlice(accs), 0, batch)
		if err != nil {
			t.Fatal(err)
		}
		return res, ev
	}
	r1, e1 := run(0)
	r2, e2 := run(13)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("results differ across batch sizes:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("event streams differ across batch sizes: %d vs %d events", len(e1), len(e2))
	}
}

// TestLimitAndCancel: max truncates the stream; a cancelled context aborts.
func TestLimitAndCancel(t *testing.T) {
	accs := hierStream(9, 2000, 1<<12)
	cfg := testConfig()
	res, err := runOne(cfg, trace.FromSlice(accs), 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.L1.Requests.Accesses(); got != 500 {
		t.Errorf("limit ignored: fed %d accesses", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg, trace.FromSlice(accs), 0, 0); err == nil {
		t.Error("cancelled run returned nil error")
	}
}

// TestConfigValidation: undersized blocks, bad kinds and an L1 without a
// scheme are rejected.
func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.L1.BlockBytes = 4
	if _, err := runOne(cfg, trace.FromSlice(nil), 0, 0); err == nil {
		t.Error("4-byte L1 block accepted")
	}
	cfg = testConfig()
	cfg.L2Kind = core.Kind(99)
	if _, err := runOne(cfg, trace.FromSlice(nil), 0, 0); err == nil {
		t.Error("bogus L2 kind accepted")
	}
	cfg = testConfig()
	cfg.L1Schemes = nil
	if _, err := RunContext(context.Background(), cfg, trace.FromSlice(nil), 0, 0); err == nil {
		t.Error("L1 without a scheme accepted")
	}
}
