package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

// This file is the differential oracle suite: a naive reference cache model,
// written independently of internal/cache (its own index arithmetic, its own
// LRU, a plain byte-map memory), replayed access-by-access against every
// controller. The controllers may differ arbitrarily in *array traffic* — the
// paper's subject — but must be functionally indistinguishable from the
// reference: same value per access, same final tag/valid/dirty/data state,
// same functional hit/miss/writeback statistics, same memory image. The
// frozen reference controllers (reference_test.go) replay in the same
// lockstep, so the model keeps them honest, and each controller's Result
// must equal its frozen reference's.

// refLine is one block in the reference model.
type refLine struct {
	valid bool
	dirty bool
	tag   uint64
	data  []byte
}

// refModel is the oracle: a write-allocate, write-back, true-LRU
// set-associative cache over a sparse byte memory. It is deliberately naive —
// O(ways) scans, byte-at-a-time data movement, division instead of bit
// tricks — so a shared bug with the optimized implementation is implausible.
type refModel struct {
	blockBytes uint64
	sets       int
	ways       int
	mem        map[uint64]byte
	lines      [][]refLine
	order      [][]int // per-set way order, most recently used first
	stats      cache.Stats
}

func newRefModel(cfg cache.Config) *refModel {
	sets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	m := &refModel{
		blockBytes: uint64(cfg.BlockBytes),
		sets:       sets,
		ways:       cfg.Ways,
		mem:        map[uint64]byte{},
		lines:      make([][]refLine, sets),
		order:      make([][]int, sets),
	}
	for s := range m.lines {
		m.lines[s] = make([]refLine, cfg.Ways)
		for w := range m.lines[s] {
			m.lines[s][w].data = make([]byte, cfg.BlockBytes)
		}
		m.order[s] = make([]int, cfg.Ways)
		for w := range m.order[s] {
			m.order[s][w] = w
		}
	}
	return m
}

func (m *refModel) setOf(addr uint64) int    { return int((addr / m.blockBytes) % uint64(m.sets)) }
func (m *refModel) tagOf(addr uint64) uint64 { return (addr / m.blockBytes) / uint64(m.sets) }
func (m *refModel) baseOf(addr uint64) uint64 {
	return addr - addr%m.blockBytes
}

// lineBase reconstructs the block address a (set, tag) pair names.
func (m *refModel) lineBase(set int, tag uint64) uint64 {
	return (tag*uint64(m.sets) + uint64(set)) * m.blockBytes
}

func (m *refModel) touch(set, way int) {
	ord := m.order[set]
	for i, w := range ord {
		if w == way {
			copy(ord[1:i+1], ord[:i])
			ord[0] = way
			return
		}
	}
}

// fill victimizes a way (first invalid in way order, else true-LRU) and loads
// the block at base from memory.
func (m *refModel) fill(set int, tag, base uint64) int {
	way := -1
	for w := range m.lines[set] {
		if !m.lines[set][w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		ord := m.order[set]
		way = ord[len(ord)-1]
		l := &m.lines[set][way]
		if l.dirty {
			wb := m.lineBase(set, l.tag)
			for i, b := range l.data {
				m.mem[wb+uint64(i)] = b
			}
			m.stats.Writebacks++
		}
		l.valid = false
		l.dirty = false
		m.stats.Evictions++
	}
	l := &m.lines[set][way]
	for i := range l.data {
		l.data[i] = m.mem[base+uint64(i)]
	}
	l.tag = tag
	l.valid = true
	l.dirty = false
	m.stats.Fills++
	m.touch(set, way)
	return way
}

// access replays one aligned request and returns the architectural value:
// the bytes read, or the bytes now stored.
func (m *refModel) access(a trace.Access) uint64 {
	set, tag := m.setOf(a.Addr), m.tagOf(a.Addr)
	way := -1
	for w := range m.lines[set] {
		if l := &m.lines[set][w]; l.valid && l.tag == tag {
			way = w
			break
		}
	}
	isWrite := a.Kind == trace.Write
	switch {
	case way >= 0 && isWrite:
		m.stats.WriteHits++
	case way >= 0:
		m.stats.ReadHits++
	case isWrite:
		m.stats.WriteMisses++
	default:
		m.stats.ReadMisses++
	}
	if way >= 0 {
		m.touch(set, way)
	} else {
		way = m.fill(set, tag, m.baseOf(a.Addr))
	}
	l := &m.lines[set][way]
	off := int(a.Addr % m.blockBytes)
	var buf [8]byte
	if !isWrite {
		copy(buf[:a.Size], l.data[off:])
		return binary.LittleEndian.Uint64(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], a.Data)
	for i := 0; i < int(a.Size); i++ {
		if l.data[off+i] != buf[i] {
			l.data[off+i] = buf[i]
			l.dirty = true
		}
	}
	return a.Data & sizeMask(a.Size)
}

// peekByte returns the freshest architectural byte at addr.
func (m *refModel) peekByte(addr uint64) byte {
	set, tag := m.setOf(addr), m.tagOf(addr)
	for w := range m.lines[set] {
		if l := &m.lines[set][w]; l.valid && l.tag == tag {
			return l.data[addr%m.blockBytes]
		}
	}
	return m.mem[addr]
}

// oracleCase is one (controller, options) configuration under test.
type oracleCase struct {
	kind Kind
	opts Options
	name string
}

func oracleCases() []oracleCase {
	var cases []oracleCase
	for _, k := range Kinds() {
		cases = append(cases, oracleCase{kind: k, name: k.String()})
	}
	// The Set-Buffer ablations exercise the paths most likely to corrupt
	// state: multi-entry MRU rotation and unconditional (never-elided)
	// write-backs.
	cases = append(cases,
		oracleCase{kind: WG, opts: Options{BufferDepth: 4}, name: "WG/depth4"},
		oracleCase{kind: WGRB, opts: Options{BufferDepth: 2}, name: "WG+RB/depth2"},
		oracleCase{kind: WG, opts: Options{DisableSilentElision: true}, name: "WG/nosilent"},
	)
	return cases
}

// TestOracleDifferential replays seeded random traces through every
// controller and the reference model in lockstep, then audits the final
// cache state and memory image byte by byte.
func TestOracleDifferential(t *testing.T) {
	cfg := smallCfg()
	for _, oc := range oracleCases() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", oc.name, seed), func(t *testing.T) {
				accs := randomStream(seed, 4000, 1<<13)
				c, err := cache.New(cfg, newMem())
				if err != nil {
					t.Fatal(err)
				}
				ctrl, err := New(oc.kind, c, oc.opts)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := cache.New(cfg, newMem())
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newReference(oc.kind, rc, oc.opts)
				if err != nil {
					t.Fatal(err)
				}
				model := newRefModel(cfg)
				for i, a := range accs {
					got := ctrl.Access(a)
					want := model.access(a)
					if got != want {
						t.Fatalf("access %d (%+v): controller returned %#x, oracle %#x", i, a, got, want)
					}
					if r := ref.Access(a); r != want {
						t.Fatalf("access %d (%+v): reference returned %#x, oracle %#x", i, a, r, want)
					}
				}
				res := ctrl.Finalize()
				requireResultsEqual(t, "against the reference", res, ref.Finalize())
				if got := rc.Stats(); got != model.stats {
					t.Errorf("reference stats diverged: %+v, oracle %+v", got, model.stats)
				}

				if got, want := c.Stats(), model.stats; got != want {
					t.Errorf("functional stats diverged: controller %+v, oracle %+v", got, want)
				}
				if res.Cache != model.stats {
					t.Errorf("result stats diverged: %+v vs oracle %+v", res.Cache, model.stats)
				}
				var row cache.Row
				for s := 0; s < model.sets; s++ {
					c.ReadRow(s, &row)
					for w := range row.Tags {
						ref := &model.lines[s][w]
						if valid := row.State[w]&cache.Valid != 0; valid != ref.valid {
							t.Fatalf("set %d way %d: valid %v, oracle %v", s, w, valid, ref.valid)
						}
						if !ref.valid {
							continue
						}
						if row.Tags[w] != ref.tag {
							t.Fatalf("set %d way %d: tag %#x, oracle %#x", s, w, row.Tags[w], ref.tag)
						}
						if dirty := row.State[w]&cache.Dirty != 0; dirty != ref.dirty {
							t.Fatalf("set %d way %d (tag %#x): dirty %v, oracle %v", s, w, ref.tag, dirty, ref.dirty)
						}
						if !bytes.Equal(row.Line(w), ref.data) {
							t.Fatalf("set %d way %d (tag %#x): line data diverged", s, w, ref.tag)
						}
					}
				}
				// Memory image over every block the trace touched.
				bases := map[uint64]struct{}{}
				for _, a := range accs {
					bases[model.baseOf(a.Addr)] = struct{}{}
				}
				for base := range bases {
					for i := uint64(0); i < model.blockBytes; i++ {
						if got, want := byte(c.PeekWord(base+i, 1)), model.peekByte(base+i); got != want {
							t.Fatalf("memory image at %#x: %#x, oracle %#x", base+i, got, want)
						}
					}
				}
			})
		}
	}
}

// TestOracleArrayTrafficOrdering pins the paper's traffic hierarchy on random
// traces: Read Bypassing can only remove array accesses from Write Grouping,
// and Write Grouping can only remove them from the RMW baseline.
func TestOracleArrayTrafficOrdering(t *testing.T) {
	cfg := smallCfg()
	for seed := uint64(1); seed <= 5; seed++ {
		accs := randomStream(seed, 4000, 1<<13)
		byKind := map[Kind]Result{}
		for _, k := range []Kind{RMW, WG, WGRB} {
			res, err := runOne(k, cfg, Options{}, trace.FromSlice(accs), 0)
			if err != nil {
				t.Fatal(err)
			}
			byKind[k] = res
		}
		if wg, rmw := byKind[WG].ArrayAccesses(), byKind[RMW].ArrayAccesses(); wg > rmw {
			t.Errorf("seed %d: WG array accesses %d exceed RMW's %d", seed, wg, rmw)
		}
		if wgrb, wg := byKind[WGRB].ArrayAccesses(), byKind[WG].ArrayAccesses(); wgrb > wg {
			t.Errorf("seed %d: WG+RB array accesses %d exceed WG's %d", seed, wgrb, wg)
		}
	}
}

// TestOracleSilentWritesNeverDirty replays an all-silent workload (zero
// stores against zeroed memory): no controller may dirty a line, write back
// to memory, or spend a Set-Buffer write-back on it.
func TestOracleSilentWritesNeverDirty(t *testing.T) {
	cfg := smallCfg()
	accs := randomStream(7, 3000, 1<<13)
	for i := range accs {
		accs[i].Data = 0 // every write stores the value already there
	}
	for _, k := range []Kind{RMW, WG, WGRB} {
		c, err := cache.New(cfg, newMem())
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(k, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range accs {
			ctrl.Access(a)
		}
		res := ctrl.Finalize()
		if res.Cache.Writebacks != 0 {
			t.Errorf("%v: %d memory writebacks from silent-only writes", k, res.Cache.Writebacks)
		}
		if res.Counters.BufferWritebacks != 0 {
			t.Errorf("%v: %d Set-Buffer writebacks from silent-only writes", k, res.Counters.BufferWritebacks)
		}
		if k != RMW && res.Counters.SilentWrites != res.Counters.DemandWrites {
			t.Errorf("%v: only %d of %d writes detected silent", k, res.Counters.SilentWrites, res.Counters.DemandWrites)
		}
		var row cache.Row
		for s := 0; s < c.Geometry().Sets; s++ {
			c.ReadRow(s, &row)
			for w, st := range row.State {
				if st == cache.Valid|cache.Dirty {
					t.Fatalf("%v: set %d way %d dirty after silent-only writes", k, s, w)
				}
			}
		}
	}
}
