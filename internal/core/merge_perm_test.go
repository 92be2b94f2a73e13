package core

import (
	"context"
	"fmt"
	"testing"

	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

func TestMergeResultsPermutationInvariant(t *testing.T) {
	// The property the sweep coordinator's merge rests on one level down:
	// MergeResults is order-independent — any permutation of the per-shard
	// parts (any dispatch/completion order) merges to the identical
	// aggregate, events ledger included. Quick-check style: random route,
	// random permutations, every set-local kind.
	const shards = 5
	stream := randomStream(11, 5000, 8192)
	for _, k := range setLocalKinds(t) {
		r, err := newShardRun(k, smallCfg(), Options{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		route := rng.New(17)
		for set := range r.route {
			r.route[set] = route.Intn(shards)
		}
		if err := r.run(context.Background(), trace.FromSlice(stream), 0, 512); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		parts := make([]Result, shards)
		for i, d := range r.drivers {
			parts[i] = d.Finish()
		}
		base, err := MergeResults(parts)
		if err != nil {
			t.Fatal(err)
		}
		pr := rng.New(29)
		for trial := 0; trial < 20; trial++ {
			perm := make([]Result, shards)
			copy(perm, parts)
			for i := len(perm) - 1; i > 0; i-- {
				j := pr.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			got, err := MergeResults(perm)
			if err != nil {
				t.Fatalf("%v trial %d: %v", k, trial, err)
			}
			requireResultsEqual(t, fmt.Sprintf("%v permutation trial %d", k, trial), got, base)
		}
	}
}
