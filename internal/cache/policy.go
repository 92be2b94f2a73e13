package cache

import "fmt"

// PolicyKind selects a replacement policy.
type PolicyKind uint8

const (
	// LRU evicts the least recently used way (the paper's policy, §5.1).
	LRU PolicyKind = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// Random evicts a uniformly random way.
	Random
	// TreePLRU is the tree pseudo-LRU approximation common in hardware.
	TreePLRU
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case TreePLRU:
		return "TreePLRU"
	default:
		return fmt.Sprintf("PolicyKind(%d)", uint8(k))
	}
}

// ParsePolicy converts a name (as used on CLI flags) to a PolicyKind.
func ParsePolicy(name string) (PolicyKind, error) {
	switch name {
	case "lru", "LRU":
		return LRU, nil
	case "fifo", "FIFO":
		return FIFO, nil
	case "random", "Random":
		return Random, nil
	case "plru", "PLRU", "treeplru", "TreePLRU":
		return TreePLRU, nil
	default:
		return 0, fmt.Errorf("cache: unknown replacement policy %q", name)
	}
}

// Replacement state is one flat word array, Cache.repl, holding stride words
// per set: the words PolicyState returns and checkpoints record.
//
//   - LRU: ways words, the ways from most to least recently used.
//   - FIFO: ways words, the ways in fill order, oldest first; hits do not
//     refresh a way's position.
//   - TreePLRU: ways-1 words, the heap-ordered internal nodes of a binary
//     tree, each 1 when the colder half is the right one. Requires
//     power-of-two ways (guaranteed by Geometry).
//   - Random: no words; victims come from the cache's one RNG, which
//     checkpoints capture once via Cache.RNGState.

// policyStride returns how many replacement words kind keeps per set.
func policyStride(kind PolicyKind, ways int) int {
	switch kind {
	case LRU, FIFO:
		return ways
	case TreePLRU:
		return ways - 1
	case Random:
		return 0
	default:
		panic("cache: invalid policy kind")
	}
}

// words returns set s's replacement words.
func (c *Cache) words(s int) []uint32 {
	return c.repl[s*c.stride:][:c.stride]
}

// resetPolicy puts every set's replacement state in its initial form: LRU
// order and FIFO queue run 0..ways-1, PLRU bits are clear.
func (c *Cache) resetPolicy() {
	if c.policy != LRU && c.policy != FIFO {
		return
	}
	for i := range c.repl {
		c.repl[i] = uint32(i % c.stride)
	}
}

// touch records a hit on way.
func (c *Cache) touch(set, way int) {
	switch c.policy {
	case LRU:
		moveToFront(c.words(set), way)
	case TreePLRU:
		plruTouch(c.words(set), way)
	}
}

// insert records a fill into way.
func (c *Cache) insert(set, way int) {
	switch c.policy {
	case LRU:
		moveToFront(c.words(set), way)
	case FIFO:
		moveToBack(c.words(set), way)
	case TreePLRU:
		plruTouch(c.words(set), way)
	}
}

// victim picks the way to evict from a full set.
func (c *Cache) victim(set int) int {
	switch c.policy {
	case LRU:
		return int(c.words(set)[c.ways-1])
	case FIFO:
		return int(c.words(set)[0])
	case TreePLRU:
		return plruVictim(c.words(set))
	default:
		return c.rand.Intn(c.ways)
	}
}

// moveToFront moves way to the head of an LRU order.
func moveToFront(order []uint32, way int) {
	w := uint32(way)
	if order[0] == w {
		return
	}
	for i := 1; i < len(order); i++ {
		if order[i] == w {
			for ; i > 0; i-- {
				order[i] = order[i-1]
			}
			order[0] = w
			return
		}
	}
}

// moveToBack moves way to the tail of a FIFO queue.
func moveToBack(queue []uint32, way int) {
	w := uint32(way)
	for i, q := range queue {
		if q == w {
			copy(queue[i:], queue[i+1:])
			queue[len(queue)-1] = w
			return
		}
	}
}

// plruTouch flips the path bits toward way so the tree points away from
// it. The tree has len(bits)+1 leaves.
func plruTouch(bits []uint32, way int) {
	node := 0
	lo, hi := 0, len(bits)+1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits[node] = 1 // point at the right (cold) half
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = 0
			node = 2*node + 2
			lo = mid
		}
	}
}

// plruVictim follows the cold pointers to a leaf. A set bit means "the cold
// half is the right one" (set by plruTouch on a left-half hit), so the walk
// descends right on 1 and left on 0.
func plruVictim(bits []uint32) int {
	node := 0
	lo, hi := 0, len(bits)+1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] != 0 {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// PolicyState returns set s's replacement state as an opaque word slice
// (empty for stateless policies). Paired with RestorePolicyState.
func (c *Cache) PolicyState(s int) []uint32 {
	return append([]uint32(nil), c.words(s)...)
}

// RestorePolicyState replaces set s's replacement state with one captured by
// PolicyState on a cache of the same configuration, validating shape and
// invariants so a corrupt checkpoint fails closed.
func (c *Cache) RestorePolicyState(s int, st []uint32) error {
	switch c.policy {
	case LRU, FIFO:
		if err := checkPerm(st, c.ways); err != nil {
			return fmt.Errorf("cache: %v state: %w", c.policy, err)
		}
	case TreePLRU:
		if len(st) != c.stride {
			return fmt.Errorf("cache: PLRU state: want %d words, got %d", c.stride, len(st))
		}
		for i, w := range st {
			if w > 1 {
				return fmt.Errorf("cache: PLRU state: word %d is %d, want 0 or 1", i, w)
			}
		}
	case Random:
		if len(st) != 0 {
			return fmt.Errorf("cache: Random state: want 0 words, got %d", len(st))
		}
	}
	copy(c.words(s), st)
	return nil
}

// checkPerm requires words to be an exact permutation of [0, ways) — the
// invariant both LRU order and FIFO queue maintain.
func checkPerm(st []uint32, ways int) error {
	if len(st) != ways {
		return fmt.Errorf("want %d words, got %d", ways, len(st))
	}
	seen := make([]bool, ways)
	for _, w := range st {
		if int(w) >= ways || seen[w] {
			return fmt.Errorf("words are not a permutation of [0,%d)", ways)
		}
		seen[w] = true
	}
	return nil
}
