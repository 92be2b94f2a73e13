package core

import (
	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// StreamAnalysis holds the stream-level measurements behind the paper's
// motivation section: Figure 3 (read/write frequency, via Stats), Figure 4
// (consecutive same-set scenario breakdown), and Figure 5 (silent write
// frequency).
type StreamAnalysis struct {
	Stats trace.Stats

	// Pairs counts consecutive access pairs; SameSet counts the subset
	// whose two accesses map to the same cache set. Scenario[p][c] further
	// breaks SameSet down by the (previous, current) access kinds — the
	// paper's RR/RW/WW/WR taxonomy.
	Pairs    uint64
	SameSet  uint64
	Scenario [2][2]uint64

	// SilentWrites counts writes whose value matched what memory already
	// held at that address.
	SilentWrites uint64
}

// scenario fraction helpers, each relative to all consecutive pairs — the
// paper's Figure 4 plots the four shares so that they sum to the same-set
// share (~27% on average).

// RR returns the same-set read-after-read share of all pairs.
func (a StreamAnalysis) RR() float64 { return a.frac(a.Scenario[trace.Read][trace.Read]) }

// RW returns the same-set write-after-read share of all pairs.
func (a StreamAnalysis) RW() float64 { return a.frac(a.Scenario[trace.Read][trace.Write]) }

// WR returns the same-set read-after-write share of all pairs.
func (a StreamAnalysis) WR() float64 { return a.frac(a.Scenario[trace.Write][trace.Read]) }

// WW returns the same-set write-after-write share of all pairs.
func (a StreamAnalysis) WW() float64 { return a.frac(a.Scenario[trace.Write][trace.Write]) }

// SameSetFrac returns the share of consecutive pairs landing in one set.
func (a StreamAnalysis) SameSetFrac() float64 { return a.frac(a.SameSet) }

func (a StreamAnalysis) frac(n uint64) float64 {
	if a.Pairs == 0 {
		return 0
	}
	return float64(n) / float64(a.Pairs)
}

// SilentFrac returns silent writes as a fraction of all writes (Figure 5).
func (a StreamAnalysis) SilentFrac() float64 {
	if a.Stats.Writes == 0 {
		return 0
	}
	return float64(a.SilentWrites) / float64(a.Stats.Writes)
}

// Analyze measures a request stream against a cache geometry, consuming up
// to max accesses (max <= 0 drains the stream). It pulls one reusable batch
// at a time through trace.FillBatch, so a generator fills it natively and
// is never drawn past max. Silent-write detection keeps an exact shadow
// image, so results are deterministic and architectural.
func Analyze(s trace.Stream, g cache.Geometry, max int) StreamAnalysis {
	if max > 0 {
		s = trace.NewLimit(s, uint64(max))
	}
	var out StreamAnalysis
	shadow := mem.New()
	havePrev := false
	var prevKind trace.Kind
	var prevSet int
	batch := make([]trace.Access, trace.DefaultBatchSize)
	for {
		n := trace.FillBatch(s, batch)
		for _, a := range batch[:n] {
			out.Stats.Observe(a)
			set := g.SetIndex(a.Addr)
			if havePrev {
				out.Pairs++
				if set == prevSet {
					out.SameSet++
					out.Scenario[prevKind][a.Kind]++
				}
			}
			if a.Kind == trace.Write {
				if shadow.WouldBeSilent(a.Addr, a.Size, a.Data) {
					out.SilentWrites++
				}
				shadow.WriteWord(a.Addr, a.Size, a.Data)
			}
			havePrev = true
			prevKind = a.Kind
			prevSet = set
		}
		if n < len(batch) {
			return out
		}
	}
}
