package cache

import (
	"testing"

	"cache8t/internal/mem"
)

func TestPolicyKindString(t *testing.T) {
	for k, want := range map[PolicyKind]string{
		LRU: "LRU", FIFO: "FIFO", Random: "Random", TreePLRU: "TreePLRU",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", want, k.String())
		}
	}
	if PolicyKind(99).String() != "PolicyKind(99)" {
		t.Error("unknown kind string")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]PolicyKind{
		"lru": LRU, "LRU": LRU, "fifo": FIFO, "random": Random, "plru": TreePLRU,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("ParsePolicy accepted unknown name")
	}
}

// oneSet builds a one-set cache of ways 8-byte lines under kind, whose
// set 0 replacement state the tests below drive directly.
func oneSet(t *testing.T, kind PolicyKind, ways int, seed uint64) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: ways * 8, Ways: ways, BlockBytes: 8, Policy: kind, Seed: seed}, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLRUVictimOrdering(t *testing.T) {
	c := oneSet(t, LRU, 4, 0)
	// Fresh state: victim is the initial tail.
	if got := c.victim(0); got != 3 {
		t.Fatalf("initial victim = %d", got)
	}
	c.touch(0, 3)
	if got := c.victim(0); got != 2 {
		t.Fatalf("victim after touch(3) = %d", got)
	}
	// Touch everything but way 1; way 1 becomes LRU.
	c.touch(0, 0)
	c.touch(0, 2)
	c.touch(0, 3)
	if got := c.victim(0); got != 1 {
		t.Fatalf("victim = %d, want 1", got)
	}
	c.insert(0, 1)
	if got := c.victim(0); got != 0 {
		t.Fatalf("victim after insert(1) = %d, want 0", got)
	}
}

func TestFIFOIgnoresTouch(t *testing.T) {
	c := oneSet(t, FIFO, 4, 0)
	if got := c.victim(0); got != 0 {
		t.Fatalf("initial FIFO victim = %d", got)
	}
	c.touch(0, 0) // must not refresh
	if got := c.victim(0); got != 0 {
		t.Fatalf("FIFO victim after touch = %d", got)
	}
	c.insert(0, 0) // refill moves it to the back
	if got := c.victim(0); got != 1 {
		t.Fatalf("FIFO victim after insert = %d", got)
	}
}

func TestRandomVictimInRange(t *testing.T) {
	c := oneSet(t, Random, 4, 9)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := c.victim(0)
		if v < 0 || v >= 4 {
			t.Fatalf("random victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("random victim only covered %d ways", len(seen))
	}
}

func TestPLRUNeverEvictsMostRecent(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		c := oneSet(t, TreePLRU, ways, 0)
		for i := 0; i < 100; i++ {
			way := i % ways
			c.touch(0, way)
			if ways > 1 && c.victim(0) == way {
				t.Fatalf("ways=%d: PLRU victim is the just-touched way %d", ways, way)
			}
		}
	}
}

func TestPLRUFullRotation(t *testing.T) {
	// Touch every way; successive victims must cycle through all ways when
	// each victim is immediately re-touched (scan pattern).
	const ways = 8
	c := oneSet(t, TreePLRU, ways, 0)
	for w := 0; w < ways; w++ {
		c.touch(0, w)
	}
	seen := map[int]bool{}
	for i := 0; i < ways; i++ {
		v := c.victim(0)
		seen[v] = true
		c.touch(0, v)
	}
	if len(seen) != ways {
		t.Errorf("PLRU scan visited %d/%d ways", len(seen), ways)
	}
}

func TestNewPolicyPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	policyStride(PolicyKind(42), 4)
}
