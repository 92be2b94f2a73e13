package experiments

import (
	"fmt"

	"cache8t/internal/core"
	"cache8t/internal/stats"
	"cache8t/internal/workload"
)

// Alloc measures how the write-allocation policy changes the picture (an
// extension: the paper assumes write-allocate). Under no-write-allocate,
// missing stores bypass the array entirely, shrinking the RMW baseline —
// so both absolute traffic and the relative WG+RB reduction move. The table
// reports array accesses per request for RMW and WG+RB under both policies
// and the reduction each policy yields.
func Alloc(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Allocation-policy sensitivity (mean over benchmarks)",
		"policy", "RMW acc/req", "WG+RB acc/req", "WG+RB reduction")
	// Each policy is its own cache shape, so each benchmark walks twice.
	vals, err := benchMap(cfg, func(_ workload.Profile, src *workload.Source) ([2][3]float64, error) {
		var out [2][3]float64
		for p, noAlloc := range []bool{false, true} {
			shape := cfg.Cache
			shape.NoWriteAllocate = noAlloc
			res, err := runSchemes(cfg, shape, src.Stream, core.Schemes(cfg.Opts, core.RMW, core.WGRB)...)
			if err != nil {
				return out, err
			}
			out[p] = [3]float64{res[0].AccessesPerRequest(), res[1].AccessesPerRequest(),
				stats.Reduction(res[1].ArrayAccesses(), res[0].ArrayAccesses())}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(vals))
	for p, name := range []string{"write-allocate (paper)", "no-write-allocate"} {
		var rmwSum, rbSum, redSum float64
		for _, v := range vals {
			rmwSum += v[p][0]
			rbSum += v[p][1]
			redSum += v[p][2]
		}
		t.AddRowf(name,
			fmt.Sprintf("%.3f", rmwSum/n),
			fmt.Sprintf("%.3f", rbSum/n),
			stats.Pct(redSum/n))
	}
	return t, nil
}
