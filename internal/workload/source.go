package workload

import (
	"fmt"
	"sync"

	"cache8t/internal/trace"
)

// MaterializeCap bounds how many accesses a single Take call may hold in
// memory: at 24 bytes per access the default (64 Mi accesses) is a 1.5 GiB
// slice — past that a materialized run is almost certainly a mistake
// and the streaming path (Source with streaming=true, the CLIs' -stream flag)
// is the right tool. The cap is a variable, not a constant, so callers with
// big machines can raise it deliberately.
var MaterializeCap = 1 << 26

// CheckMaterializeCap fails fast — before any allocation — when n exceeds
// MaterializeCap.
func CheckMaterializeCap(n int) error {
	if n > MaterializeCap {
		return fmt.Errorf("%d accesses exceeds the materialization cap of %d (%.1f GiB of trace): "+
			"run streamed (-stream) or raise workload.MaterializeCap",
			n, MaterializeCap, float64(n)*24/(1<<30))
	}
	return nil
}

// Source is one benchmark's trace, openable any number of times, each open
// yielding the identical access sequence. It unifies the two execution modes
// behind one type:
//
//   - materialized: the first Stream call generates and caches the slice
//     (bounded by MaterializeCap); later opens replay it with zero cost.
//   - streaming: every Stream call builds a fresh deterministic generator,
//     so no open ever holds more than one access — traces larger than RAM
//     are fine, at the cost of regenerating per open.
//
// Because generators are seeded purely by (profile, seed), the two modes
// yield byte-identical sequences; controllers driven from either produce
// identical Results.
type Source struct {
	prof      Profile
	seed      uint64
	n         int
	streaming bool

	once sync.Once
	accs []trace.Access
	err  error
}

// NewSource builds a source for the first n accesses of prof's stream.
// n <= 0 means unbounded, which forces streaming mode regardless of the flag
// (an unbounded trace cannot be materialized).
func NewSource(prof Profile, seed uint64, n int, streaming bool) *Source {
	if n <= 0 {
		streaming = true
	}
	return &Source{prof: prof, seed: seed, n: n, streaming: streaming}
}

// Profile returns the benchmark profile this source draws from.
func (s *Source) Profile() Profile { return s.prof }

// N returns the access budget per open (0 = unbounded).
func (s *Source) N() int {
	if s.n < 0 {
		return 0
	}
	return s.n
}

// Stream opens the trace from the beginning. Every call returns a stream
// yielding the same sequence.
func (s *Source) Stream() (trace.Stream, error) {
	if s.streaming {
		g, err := NewGenerator(s.prof, s.seed)
		if err != nil {
			return nil, err
		}
		if s.n <= 0 {
			return g, nil
		}
		return trace.NewLimit(g, uint64(s.n)), nil
	}
	accs, err := s.Accesses()
	if err != nil {
		return nil, err
	}
	return trace.FromSlice(accs), nil
}

// Accesses returns the materialized trace, generating it on first use. In
// streaming mode it fails: the caller asked for the whole trace in memory,
// which is exactly what streaming mode exists to avoid.
func (s *Source) Accesses() ([]trace.Access, error) {
	if s.streaming {
		return nil, fmt.Errorf("workload: source %q is streaming; no materialized accesses", s.prof.Name)
	}
	s.once.Do(func() {
		s.accs, s.err = Take(s.prof, s.seed, s.n)
	})
	return s.accs, s.err
}

// Sources builds one Source per profile, sharing seed, budget, and mode.
func Sources(profiles []Profile, seed uint64, n int, streaming bool) []*Source {
	out := make([]*Source, len(profiles))
	for i, p := range profiles {
		out[i] = NewSource(p, seed, n, streaming)
	}
	return out
}
