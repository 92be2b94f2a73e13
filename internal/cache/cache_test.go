package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
)

func newTestCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// readRow returns a copy of set s.
func readRow(c *Cache, s int) Row {
	var row Row
	c.ReadRow(s, &row)
	return row
}

func smallConfig() Config {
	return Config{SizeBytes: 1024, Ways: 2, BlockBytes: 32, Policy: LRU}
}

func TestNewRejectsNilBacking(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil backing accepted")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ways = 3
	if _, err := New(cfg, mem.New()); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestNewRejectsBadPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyKind(42)
	if _, err := New(cfg, mem.New()); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := newTestCache(t, smallConfig())
	_, _, hit := c.Ensure(0x100, false)
	if hit {
		t.Fatal("cold access hit")
	}
	_, _, hit = c.Ensure(0x104, false) // same block
	if !hit {
		t.Fatal("same-block access missed")
	}
	st := c.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestCache(t, smallConfig())
	set, way, _ := c.Ensure(0x200, true)
	if silent := c.WriteWord(set, way, 0x200, 4, 0xcafebabe); silent {
		t.Fatal("first write of nonzero value reported silent")
	}
	set, way, hit := c.Ensure(0x200, false)
	if !hit {
		t.Fatal("read after write missed")
	}
	if got := c.ReadWord(set, way, 0x200, 4); got != 0xcafebabe {
		t.Fatalf("ReadWord = %#x", got)
	}
}

func TestSilentWriteDetection(t *testing.T) {
	c := newTestCache(t, smallConfig())
	set, way, _ := c.Ensure(0x300, true)
	c.WriteWord(set, way, 0x300, 4, 7)
	if silent := c.WriteWord(set, way, 0x300, 4, 7); !silent {
		t.Fatal("rewrite of identical value not silent")
	}
	if silent := c.WriteWord(set, way, 0x300, 4, 8); silent {
		t.Fatal("changing write reported silent")
	}
	// Writing zero to a freshly filled zero block is silent and must not dirty.
	c2 := newTestCache(t, smallConfig())
	set, way, _ = c2.Ensure(0x400, true)
	if silent := c2.WriteWord(set, way, 0x400, 8, 0); !silent {
		t.Fatal("zero-over-zero not silent")
	}
	if row := readRow(c2, set); row.State[way]&Dirty != 0 {
		t.Fatal("silent write dirtied the line")
	}
}

func TestEvictionWritesBackDirtyData(t *testing.T) {
	cfg := smallConfig() // 1 KB, 2-way, 32 B -> 16 sets
	backing := mem.New()
	c, err := New(cfg, backing)
	if err != nil {
		t.Fatal(err)
	}
	// Three blocks mapping to set 0 in a 2-way cache force an eviction.
	g := c.Geometry()
	stride := uint64(g.Sets * g.BlockBytes)
	set, way, _ := c.Ensure(0, true)
	c.WriteWord(set, way, 0, 8, 0x1111)
	c.Ensure(stride, false)
	c.Ensure(2*stride, false) // evicts block 0 (LRU)
	if got := backing.ReadWord(0, 8); got != 0x1111 {
		t.Fatalf("dirty eviction lost data: memory holds %#x", got)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Writebacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The evicted block must re-miss and see its written data.
	set, way, hit := c.Ensure(0, false)
	if hit {
		t.Fatal("evicted block reported hit")
	}
	if got := c.ReadWord(set, way, 0, 8); got != 0x1111 {
		t.Fatalf("refilled data = %#x", got)
	}
}

func TestCleanEvictionSkipsWriteback(t *testing.T) {
	c := newTestCache(t, smallConfig())
	g := c.Geometry()
	stride := uint64(g.Sets * g.BlockBytes)
	c.Ensure(0, false)
	c.Ensure(stride, false)
	c.Ensure(2*stride, false)
	st := c.Stats()
	if st.Evictions != 1 || st.Writebacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.Probe(0x500)
	if st := c.Stats(); st.Accesses() != 0 || st.Fills != 0 {
		t.Fatalf("Probe mutated stats: %+v", st)
	}
	set, way, hit := c.Probe(0x500)
	if hit || way != -1 || set != c.Geometry().SetIndex(0x500) {
		t.Fatalf("Probe = (%d,%d,%v)", set, way, hit)
	}
}

func TestFlushAllMakesMemoryConsistent(t *testing.T) {
	backing := mem.New()
	c, err := New(smallConfig(), backing)
	if err != nil {
		t.Fatal(err)
	}
	set, way, _ := c.Ensure(0x40, true)
	c.WriteWord(set, way, 0x40, 4, 99)
	if backing.ReadWord(0x40, 4) == 99 {
		t.Fatal("write-back cache leaked to memory early")
	}
	c.FlushAll()
	if got := backing.ReadWord(0x40, 4); got != 99 {
		t.Fatalf("after flush memory = %d", got)
	}
	if _, _, hit := c.Probe(0x40); hit {
		t.Fatal("flushed line still resident")
	}
}

func TestSnapshotRestoreSet(t *testing.T) {
	c := newTestCache(t, smallConfig())
	set, way, _ := c.Ensure(0x20, true)
	c.WriteWord(set, way, 0x20, 4, 5)
	row := readRow(c, set)
	if row.Tags[way] != c.Geometry().Tag(0x20) || row.State[way] != Valid|Dirty || row.ReadWord(way, 0, 4) != 5 {
		t.Fatalf("row copy of way %d: tag %#x state %b data %#x", way, row.Tags[way], row.State[way], row.ReadWord(way, 0, 4))
	}
	// Mutating the row must not touch the cache.
	row.Line(way)[0] = 0xff
	if again := readRow(c, set); again.Line(way)[0] == 0xff {
		t.Fatal("row aliases cache storage")
	}
	// WriteRow pushes the row back.
	c.WriteRow(set, &row)
	if again := readRow(c, set); again.Line(way)[0] != 0xff {
		t.Fatal("WriteRow did not copy data")
	}
	// A row of the cache's shape is refilled in place.
	data := &row.Data[0]
	c.ReadRow(set+1, &row)
	if &row.Data[0] != data {
		t.Fatal("ReadRow reallocated a row of the right shape")
	}
}

// TestWordsAgainstBytes checks the eight-byte masked word paths of the cache
// and of a row against byte-at-a-time stores, at every size and every
// in-block offset, including the last eight bytes of a block.
func TestWordsAgainstBytes(t *testing.T) {
	c := newTestCache(t, smallConfig())
	g := c.Geometry()
	r := rng.New(5)
	ref := make([]byte, g.BlockBytes)
	set, way, _ := c.Ensure(0, true)
	row := readRow(c, set)
	for i := 0; i < 20000; i++ {
		size := uint8(1) << r.Intn(4)
		off := r.Intn(g.BlockBytes - int(size) + 1)
		v := r.Uint64()
		if r.Bool(0.3) {
			v = c.ReadWord(set, way, uint64(off), size) // a silent store
		}
		changed := false
		for b := 0; b < int(size); b++ {
			if nb := byte(v >> (8 * b)); ref[off+b] != nb {
				ref[off+b], changed = nb, true
			}
		}
		if silent := c.WriteWord(set, way, uint64(off), size, v); silent == changed {
			t.Fatalf("step %d: cache WriteWord(off %d, size %d) silent=%v, bytes changed=%v", i, off, size, silent, changed)
		}
		if silent := row.WriteWord(way, off, size, v); silent == changed {
			t.Fatalf("step %d: row WriteWord(off %d, size %d) silent=%v, bytes changed=%v", i, off, size, silent, changed)
		}
		want := uint64(0)
		for b := int(size) - 1; b >= 0; b-- {
			want = want<<8 | uint64(ref[off+b])
		}
		if got := c.ReadWord(set, way, uint64(off), size); got != want {
			t.Fatalf("step %d: cache ReadWord(off %d, size %d) = %#x, want %#x", i, off, size, got, want)
		}
		if got := row.ReadWord(way, off, size); got != want {
			t.Fatalf("step %d: row ReadWord(off %d, size %d) = %#x, want %#x", i, off, size, got, want)
		}
	}
	if again := readRow(c, set); !bytes.Equal(again.Line(way), ref) || !bytes.Equal(row.Line(way), ref) {
		t.Fatal("block bytes differ from the byte-at-a-time reference")
	}
}

func TestPeekWordSeesFreshestCopy(t *testing.T) {
	backing := mem.New()
	backing.WriteWord(0x1000, 4, 1)
	c, err := New(smallConfig(), backing)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PeekWord(0x1000, 4); got != 1 {
		t.Fatalf("peek through to memory = %d", got)
	}
	set, way, _ := c.Ensure(0x1000, true)
	c.WriteWord(set, way, 0x1000, 4, 2)
	if got := c.PeekWord(0x1000, 4); got != 2 {
		t.Fatalf("peek of dirty line = %d", got)
	}
	if backing.ReadWord(0x1000, 4) != 1 {
		t.Fatal("peek flushed the line")
	}
}

func TestFillLoadsFromBacking(t *testing.T) {
	backing := mem.New()
	backing.WriteWord(0x2000, 8, 0xfeedface)
	c, err := New(smallConfig(), backing)
	if err != nil {
		t.Fatal(err)
	}
	set, way, _ := c.Ensure(0x2000, false)
	if got := c.ReadWord(set, way, 0x2000, 8); got != 0xfeedface {
		t.Fatalf("filled data = %#x", got)
	}
}

// TestAgainstFlatMemoryModel is the core functional property test: a cache in
// front of memory must be observationally identical to a flat memory, for
// every replacement policy.
func TestAgainstFlatMemoryModel(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, FIFO, Random, TreePLRU} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{SizeBytes: 512, Ways: 2, BlockBytes: 32, Policy: pol, Seed: 7}
			c, err := New(cfg, mem.New())
			if err != nil {
				t.Fatal(err)
			}
			ref := mem.New()
			r := rng.New(101)
			sizes := []uint8{1, 2, 4, 8}
			for i := 0; i < 20000; i++ {
				size := sizes[r.Intn(4)]
				// Aligned addresses within a tight footprint to force
				// heavy eviction traffic.
				addr := uint64(r.Intn(4096/int(size))) * uint64(size)
				if r.Bool(0.5) {
					data := r.Uint64()
					set, way, _ := c.Ensure(addr, true)
					c.WriteWord(set, way, addr, size, data)
					ref.WriteWord(addr, size, data)
				} else {
					set, way, _ := c.Ensure(addr, false)
					got := c.ReadWord(set, way, addr, size)
					want := ref.ReadWord(addr, size)
					if got != want {
						t.Fatalf("step %d: read %#x+%d = %#x, want %#x (policy %v)",
							i, addr, size, got, want, pol)
					}
				}
			}
			// After a full flush the memory images must agree.
			c.FlushAll()
			if !c.Backing().Equal(ref) {
				t.Fatal("flushed image differs from reference memory")
			}
		})
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{ReadHits: 6, ReadMisses: 2, WriteHits: 1, WriteMisses: 1}
	if s.Hits() != 7 || s.Misses() != 3 || s.Accesses() != 10 {
		t.Fatalf("derived stats wrong: %+v", s)
	}
	if got := s.MissRate(); got != 0.3 {
		t.Fatalf("MissRate = %v", got)
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty MissRate nonzero")
	}
}

func TestLineBaseRoundTripProperty(t *testing.T) {
	c := newTestCache(t, smallConfig())
	g := c.Geometry()
	f := func(addr uint64) bool {
		base := g.BlockBase(addr)
		return c.lineBase(g.SetIndex(addr), g.Tag(addr)) == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
