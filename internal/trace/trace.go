// Package trace defines the memory-request representation that flows from
// workload generators (or the pinlite instrumentation VM) into the cache
// model, plus a compact binary on-disk trace format.
//
// This is the moral equivalent of the paper's Pin tool output: a stream of
// L1 data-cache requests, each a read or a write with an address, an access
// size, the data value involved, and the count of instructions executed
// since the previous memory request (so instruction-relative frequencies,
// Figure 3, can be recovered).
package trace

import "fmt"

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read is a data-cache load.
	Read Kind = iota
	// Write is a data-cache store.
	Write
)

// String returns "R" or "W".
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one memory request.
type Access struct {
	// Addr is the byte address of the access.
	Addr uint64
	// Data is the value read or written, up to 8 bytes. For writes it is
	// what silent-write detection compares against memory content.
	Data uint64
	// Gap is the number of non-memory instructions executed since the
	// previous memory access (the access itself counts as one more
	// instruction). Figure 3's per-instruction frequencies come from this.
	Gap uint32
	// Size is the access width in bytes (1, 2, 4, or 8).
	Size uint8
	// Kind says whether this is a Read or a Write.
	Kind Kind
}

// Instructions returns how many instructions this access accounts for:
// the access instruction itself plus the preceding non-memory gap.
func (a Access) Instructions() uint64 { return uint64(a.Gap) + 1 }

// String renders an access like "W 0x1f40+4 =0xdeadbeef".
func (a Access) String() string {
	return fmt.Sprintf("%s 0x%x+%d =0x%x", a.Kind, a.Addr, a.Size, a.Data)
}

// Stream produces a sequence of accesses. Next reports false when the stream
// is exhausted. Streams are single-use and not safe for concurrent callers.
type Stream interface {
	Next() (Access, bool)
}

// SliceStream adapts a slice of accesses into a Stream.
type SliceStream struct {
	accesses []Access
	pos      int
}

// FromSlice returns a Stream over accesses.
func FromSlice(accesses []Access) *SliceStream {
	return &SliceStream{accesses: accesses}
}

// Next returns the next access.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.accesses) {
		return Access{}, false
	}
	a := s.accesses[s.pos]
	s.pos++
	return a, true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// nextBatch advances past up to n accesses and returns them as a subslice of
// the backing array — the Batcher's zero-copy path for materialized traces.
// Callers must treat the result as read-only.
func (s *SliceStream) nextBatch(n int) []Access {
	if s.pos >= len(s.accesses) {
		return nil
	}
	end := s.pos + n
	if end > len(s.accesses) {
		end = len(s.accesses)
	}
	batch := s.accesses[s.pos:end]
	s.pos = end
	return batch
}

// Limit wraps a stream and stops it after n accesses.
type Limit struct {
	inner Stream
	left  uint64
}

// NewLimit returns a stream yielding at most n accesses from inner.
func NewLimit(inner Stream, n uint64) *Limit {
	return &Limit{inner: inner, left: n}
}

// Next returns the next access while the budget lasts.
func (l *Limit) Next() (Access, bool) {
	if l.left == 0 {
		return Access{}, false
	}
	a, ok := l.inner.Next()
	if !ok {
		l.left = 0
		return Access{}, false
	}
	l.left--
	return a, true
}

// ReadBatch implements BatchSource: it fills at most the remaining budget
// of dst from inner, natively when inner is a BatchSource.
func (l *Limit) ReadBatch(dst []Access) int {
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n := FillBatch(l.inner, dst)
	if n < len(dst) {
		l.left = 0
	} else {
		l.left -= uint64(n)
	}
	return n
}

// Err surfaces the inner stream's decode error when it tracks one, so a
// bounded replay of a corrupt trace fails like an unbounded one instead of
// truncating silently.
func (l *Limit) Err() error {
	if es, ok := l.inner.(ErrStream); ok {
		return es.Err()
	}
	return nil
}

// Collect drains up to max accesses from s into a slice. max <= 0 drains the
// whole stream (dangerous for infinite generators).
func Collect(s Stream, max int) []Access {
	var out []Access
	for max <= 0 || len(out) < max {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// Func adapts a function into a Stream.
type Func func() (Access, bool)

// Next invokes the function.
func (f Func) Next() (Access, bool) { return f() }

// Stats accumulates the stream-level statistics the paper's Figure 3 is
// built from.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Instructions uint64
}

// Observe records one access.
func (s *Stats) Observe(a Access) {
	if a.Kind == Read {
		s.Reads++
	} else {
		s.Writes++
	}
	s.Instructions += a.Instructions()
}

// Accesses returns total memory requests.
func (s *Stats) Accesses() uint64 { return s.Reads + s.Writes }

// ReadFrac returns reads as a fraction of instructions.
func (s *Stats) ReadFrac() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Instructions)
}

// WriteFrac returns writes as a fraction of instructions.
func (s *Stats) WriteFrac() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Writes) / float64(s.Instructions)
}
