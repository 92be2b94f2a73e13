package core

import (
	"fmt"
	"testing"

	"cache8t/internal/trace"
)

// Metamorphic properties of the write-path controllers: known-silent trace
// mutations whose effect on specific counters is provable from the protocol,
// checked over seeded random traces. The conformance suite runs this same
// corpus through every execution path, so one path is enough here.

// mustRun runs accs through Run, failing the test on error.
func mustRun(t *testing.T, kind Kind, opts Options, accs []trace.Access) Result {
	t.Helper()
	res, err := runOne(kind, smallCfg(), opts, trace.FromSlice(accs), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// withSilentDuplicates inserts, after every write, an identical write — a
// store of bytes that are already there, hence necessarily silent.
func withSilentDuplicates(accs []trace.Access) []trace.Access {
	out := make([]trace.Access, 0, 2*len(accs))
	for _, a := range accs {
		out = append(out, a)
		if a.Kind == trace.Write {
			out = append(out, a)
		}
	}
	return out
}

// withDuplicateReads inserts, after every read, the same read again.
func withDuplicateReads(accs []trace.Access) []trace.Access {
	out := make([]trace.Access, 0, 2*len(accs))
	for _, a := range accs {
		out = append(out, a)
		if a.Kind == trace.Read {
			out = append(out, a)
		}
	}
	return out
}

// TestMetamorphicSilentWriteInsertion: inserting silent writes must not
// change any dirty write-back count — not the cache's memory write-backs,
// not the Set-Buffer's row write-backs. For the grouping controllers the
// duplicate store lands in the still-buffered set, so it must cost no array
// access at all: total array traffic is invariant too. That is the paper's
// silent-store claim in executable form.
func TestMetamorphicSilentWriteInsertion(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		base := randomStream(seed, 3000, 1<<13)
		mutated := withSilentDuplicates(base)
		for _, k := range []Kind{RMW, WG, WGRB, KindTS} {
			t.Run(fmt.Sprintf("%v/seed%d", k, seed), func(t *testing.T) {
				r0 := mustRun(t, k, Options{}, base)
				r1 := mustRun(t, k, Options{}, mutated)
				if r1.Cache.Writebacks != r0.Cache.Writebacks {
					t.Errorf("memory writebacks changed: %d -> %d", r0.Cache.Writebacks, r1.Cache.Writebacks)
				}
				if r1.Counters.BufferWritebacks != r0.Counters.BufferWritebacks {
					t.Errorf("Set-Buffer writebacks changed: %d -> %d",
						r0.Counters.BufferWritebacks, r1.Counters.BufferWritebacks)
				}
				if r1.Cache.Fills != r0.Cache.Fills || r1.Cache.Evictions != r0.Cache.Evictions {
					t.Errorf("fill/eviction schedule changed: %d/%d -> %d/%d",
						r0.Cache.Fills, r0.Cache.Evictions, r1.Cache.Fills, r1.Cache.Evictions)
				}
				// RMW and TS pay full array cost for every store, silent or
				// not; only the grouping controllers absorb them for free.
				if k != RMW && k != KindTS && r1.ArrayAccesses() != r0.ArrayAccesses() {
					t.Errorf("array accesses changed under %v: %d -> %d — silent stores are not free",
						k, r0.ArrayAccesses(), r1.ArrayAccesses())
				}
			})
		}
	}
}

// TestMetamorphicReadDuplication: repeating a read that was just served must
// not change array *write* counts anywhere — the duplicate hits (no fill, no
// eviction, no write-back), and under WG the premature write-back its first
// copy may have forced leaves the buffer clean, so the repeat elides.
func TestMetamorphicReadDuplication(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		base := randomStream(seed, 3000, 1<<13)
		mutated := withDuplicateReads(base)
		for _, k := range []Kind{RMW, WG, WGRB, KindTS} {
			t.Run(fmt.Sprintf("%v/seed%d", k, seed), func(t *testing.T) {
				r0 := mustRun(t, k, Options{}, base)
				r1 := mustRun(t, k, Options{}, mutated)
				if r1.ArrayWrites != r0.ArrayWrites {
					t.Errorf("array writes changed: %d -> %d", r0.ArrayWrites, r1.ArrayWrites)
				}
				if r1.Cache.Writebacks != r0.Cache.Writebacks {
					t.Errorf("memory writebacks changed: %d -> %d", r0.Cache.Writebacks, r1.Cache.Writebacks)
				}
				if r1.Counters.BufferWritebacks != r0.Counters.BufferWritebacks {
					t.Errorf("Set-Buffer writebacks changed: %d -> %d",
						r0.Counters.BufferWritebacks, r1.Counters.BufferWritebacks)
				}
				if r1.Cache.Fills != r0.Cache.Fills || r1.Cache.Evictions != r0.Cache.Evictions {
					t.Errorf("fill/eviction schedule changed: %d/%d -> %d/%d",
						r0.Cache.Fills, r0.Cache.Evictions, r1.Cache.Fills, r1.Cache.Evictions)
				}
			})
		}
	}
}
