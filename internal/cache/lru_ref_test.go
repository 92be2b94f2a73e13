package cache

import (
	"fmt"
	"slices"
	"testing"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
)

// refSet is an independent, obviously-correct model of one cache set under
// a replacement policy: a tag per way plus the bookkeeping the policy's
// definition names, kept the plain way (timestamps, a tree walked by the
// way's bits, a private copy of the RNG). The cache is checked against it
// hit for hit and victim for victim.
type refSet struct {
	kind  PolicyKind
	tags  []uint64
	valid []bool
	// stamp is, per way, the step of the last use (LRU) or of the fill
	// (FIFO).
	stamp []int
	// node holds the PLRU tree's internal nodes in heap order; true means
	// the colder half is the right one.
	node []bool
	rand *rng.Xoshiro256
}

func newRefSet(kind PolicyKind, ways int, r *rng.Xoshiro256) *refSet {
	return &refSet{kind: kind, tags: make([]uint64, ways), valid: make([]bool, ways),
		stamp: make([]int, ways), node: make([]bool, ways-1), rand: r}
}

// depth is log2 of the ways: the PLRU tree's height.
func (m *refSet) depth() int {
	d := 0
	for 1<<d < len(m.tags) {
		d++
	}
	return d
}

// plruUse points every node on way's path away from way: the node at
// depth d is heap index 2^d-1 + way>>(depth-d), and way lies in its left
// half when bit depth-1-d of way is clear.
func (m *refSet) plruUse(way int) {
	n := m.depth()
	for d := 0; d < n; d++ {
		left := way>>(n-1-d)&1 == 0
		m.node[1<<d-1+way>>(n-d)] = left
	}
}

// plruVictim follows the cold pointers down, building the victim's bits.
func (m *refSet) plruVictim() int {
	way := 0
	for d := 0; d < m.depth(); d++ {
		bit := 0
		if m.node[1<<d-1+way] {
			bit = 1
		}
		way = way<<1 | bit
	}
	return way
}

// access applies one access at step now and returns whether it hit and the
// way that now holds tag.
func (m *refSet) access(tag uint64, now int) (hit bool, way int) {
	for w := range m.tags {
		if m.valid[w] && m.tags[w] == tag {
			if m.kind == LRU {
				m.stamp[w] = now
			}
			if m.kind == TreePLRU {
				m.plruUse(w)
			}
			return true, w
		}
	}
	way = slices.Index(m.valid, false)
	if way < 0 {
		switch m.kind {
		case LRU, FIFO:
			for w := range m.stamp {
				if way < 0 || m.stamp[w] < m.stamp[way] {
					way = w
				}
			}
		case TreePLRU:
			way = m.plruVictim()
		case Random:
			way = m.rand.Intn(len(m.tags))
		}
	}
	m.tags[way], m.valid[way], m.stamp[way] = tag, true, now
	if m.kind == TreePLRU {
		m.plruUse(way)
	}
	return false, way
}

// policySuite drives a cache under kind through random Ensure sequences
// against one refSet per set, over several shapes, and round-trips the
// replacement state through PolicyState/RestorePolicyState at random
// points by moving the run onto a fresh cache rebuilt from it.
func policySuite(t *testing.T, kind PolicyKind) {
	for _, ways := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			cfg := Config{SizeBytes: 16 * ways * 32, Ways: ways, BlockBytes: 32, Policy: kind, Seed: 77}
			c, err := New(cfg, mem.New())
			if err != nil {
				t.Fatal(err)
			}
			g := c.Geometry()
			victims := rng.New(cfg.Seed) // the model's copy of the cache's RNG
			refs := make([]*refSet, g.Sets)
			for i := range refs {
				refs[i] = newRefSet(kind, ways, victims)
			}
			r := rng.New(31 + uint64(ways))
			var row Row
			for step := 1; step <= 40000; step++ {
				if r.Intn(2000) == 0 {
					c = rebuild(t, c, cfg)
				}
				// Confined tag space per set so hits are common.
				set := r.Intn(g.Sets)
				tag := uint64(r.Intn(2*ways + 1))
				addr := (tag<<uint(log2(g.Sets))|uint64(set))<<g.blockShift + uint64(r.Intn(g.BlockBytes/8)*8)
				_, way, hit := c.Ensure(addr, r.Bool(0.3))
				ref := refs[set]
				refHit, refWay := ref.access(tag, step)
				if hit != refHit || way != refWay {
					t.Fatalf("step %d (set %d tag %d): cache hit=%v way=%d, reference hit=%v way=%d",
						step, set, tag, hit, way, refHit, refWay)
				}
				c.ReadRow(set, &row)
				for w := range ref.tags {
					if valid := row.State[w]&Valid != 0; valid != ref.valid[w] || valid && row.Tags[w] != ref.tags[w] {
						t.Fatalf("step %d (set %d): way %d holds tag %d (valid %v), reference %d (valid %v)",
							step, set, w, row.Tags[w], valid, ref.tags[w], ref.valid[w])
					}
				}
			}
		})
	}
}

// rebuild moves a run onto a fresh cache of cfg over the same memory,
// copying lines, stats, RNG and every set's PolicyState.
func rebuild(t *testing.T, c *Cache, cfg Config) *Cache {
	t.Helper()
	fresh, err := New(cfg, c.Backing())
	if err != nil {
		t.Fatal(err)
	}
	fresh.RestoreStats(c.Stats())
	fresh.RestoreRNGState(c.RNGState())
	var row Row
	for s := 0; s < c.Geometry().Sets; s++ {
		c.ReadRow(s, &row)
		fresh.WriteRow(s, &row)
		if err := fresh.RestorePolicyState(s, c.PolicyState(s)); err != nil {
			t.Fatalf("set %d: restoring its own state: %v", s, err)
		}
	}
	return fresh
}

func TestLRUAgainstReferenceModel(t *testing.T)      { policySuite(t, LRU) }
func TestFIFOAgainstReferenceModel(t *testing.T)     { policySuite(t, FIFO) }
func TestTreePLRUAgainstReferenceModel(t *testing.T) { policySuite(t, TreePLRU) }
func TestRandomAgainstReferenceModel(t *testing.T)   { policySuite(t, Random) }

// TestRestorePolicyStateRejectsCorrupt feeds each policy corrupt state words
// and requires the errors checkpoint decoding has always reported, with the
// set's state left as it was.
func TestRestorePolicyStateRejectsCorrupt(t *testing.T) {
	cases := []struct {
		kind  PolicyKind
		words []uint32
		want  string
	}{
		{LRU, []uint32{0, 1, 2}, "cache: LRU state: want 4 words, got 3"},
		{LRU, []uint32{0, 1, 1, 3}, "cache: LRU state: words are not a permutation of [0,4)"},
		{LRU, []uint32{0, 1, 2, 4}, "cache: LRU state: words are not a permutation of [0,4)"},
		{FIFO, []uint32{0, 1, 2, 3, 0}, "cache: FIFO state: want 4 words, got 5"},
		{FIFO, []uint32{3, 3, 2, 1}, "cache: FIFO state: words are not a permutation of [0,4)"},
		{TreePLRU, []uint32{0, 1, 0, 1}, "cache: PLRU state: want 3 words, got 4"},
		{TreePLRU, []uint32{0, 2, 1}, "cache: PLRU state: word 1 is 2, want 0 or 1"},
		{Random, []uint32{0}, "cache: Random state: want 0 words, got 1"},
	}
	for _, tc := range cases {
		c := oneSet(t, tc.kind, 4, 0)
		c.touch(0, 2)
		before := c.PolicyState(0)
		err := c.RestorePolicyState(0, tc.words)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v %v: error %v, want %q", tc.kind, tc.words, err, tc.want)
		}
		if got := c.PolicyState(0); !slices.Equal(got, before) {
			t.Errorf("%v %v: rejected restore changed the state from %v to %v", tc.kind, tc.words, before, got)
		}
	}
}
