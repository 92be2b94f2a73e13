package regress

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/report"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// CoreBenchEntry is one appended record of hot-path throughput: the
// materialized-vs-streamed trajectory BENCH_core.json accumulates across
// commits. Both modes consume the same in-memory binary trace; "materialized"
// decodes it fully into a slice and then replays, "streamed" decodes batch by
// batch through the pipeline that handles traces larger than RAM. Ratio near
// (or above) 1.0 means streaming costs nothing over decode-then-replay.
type CoreBenchEntry struct {
	Schema     int    `json:"schema"`
	GitSHA     string `json:"git_sha"`
	UnixMS     int64  `json:"unix_ms"`
	Workload   string `json:"workload"`
	Controller string `json:"controller"`
	N          int    `json:"n"`
	BatchSize  int    `json:"batch_size"`
	// GoMaxProcs and NumCPU make parallel ratios interpretable: a
	// sharded_ratio below 1.0 measured with gomaxprocs 1 is expected
	// overhead, not a regression. Entries appended before these fields
	// existed decode with both at 0 ("unrecorded") — see TestLedgerDecodes.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`

	MaterializedWallMS float64 `json:"materialized_wall_ms"`
	MaterializedAccPS  float64 `json:"materialized_accesses_per_sec"`
	StreamedWallMS     float64 `json:"streamed_wall_ms"`
	StreamedAccPS      float64 `json:"streamed_accesses_per_sec"`
	// Ratio is streamed/materialized throughput (>= 1 means streaming is at
	// least as fast).
	Ratio float64 `json:"ratio"`

	// Sharded fields are present when the bench ran with Shards > 1: the
	// same streamed decode driven through core.RunShardedContext
	// set-partitions.
	// ShardedRatio is sharded/streamed throughput; > 1 means the parallel
	// path wins (expect ~1/shards overhead on a single-core host, where the
	// routing scan and goroutine switches buy nothing).
	Shards        int     `json:"shards,omitempty"`
	ShardedWallMS float64 `json:"sharded_wall_ms,omitempty"`
	ShardedAccPS  float64 `json:"sharded_accesses_per_sec,omitempty"`
	ShardedRatio  float64 `json:"sharded_ratio,omitempty"`
}

// bestOf3 runs the benchmark body three times and keeps the fastest wall
// time (the usual guard against scheduler noise in single-shot benchmarks),
// returning that run's result.
func bestOf3(run func() (core.Result, error)) (core.Result, float64, error) {
	var res core.Result
	bestWall := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := run()
		wall := time.Since(start).Seconds() * 1e3
		if err != nil {
			return core.Result{}, 0, err
		}
		if i == 0 || wall < bestWall {
			bestWall = wall
			res = r
		}
	}
	return res, bestWall, nil
}

// sameCoreResult reports whether two runs produced identical observable
// results (everything golden comparisons look at; the event ledger is pinned
// through ArrayReads/ArrayWrites plus Counters).
func sameCoreResult(a, b core.Result) bool {
	return a.Controller == b.Controller &&
		a.Requests == b.Requests &&
		a.Cache == b.Cache &&
		a.Counters == b.Counters &&
		a.ArrayReads == b.ArrayReads &&
		a.ArrayWrites == b.ArrayWrites
}

// CoreBench measures the controller hot path in both execution modes over the
// same trace and verifies the results are identical before reporting. Each
// mode runs three times; the best wall time is kept (the usual guard against
// scheduler noise in single-shot benchmarks). With opts.Shards > 1 a third
// mode runs the set-sharded driver over the same streamed decode; that mode
// benches the RMW controller (WG keeps cross-set state, which would silently
// fall back to serial and bench nothing), and all modes switch with it so
// the entry's three numbers stay comparable.
func CoreBench(opts Options) (CoreBenchEntry, error) {
	kind := core.WG
	if opts.Shards > 1 {
		kind = core.RMW
	}
	shape := cache.DefaultConfig()
	prof := workload.Profiles()[0]
	accs, err := workload.Take(prof, opts.Seed, opts.N)
	if err != nil {
		return CoreBenchEntry{}, err
	}
	var enc bytes.Buffer
	if _, err := trace.WriteAll(&enc, trace.FromSlice(accs), 0); err != nil {
		return CoreBenchEntry{}, err
	}
	data := enc.Bytes()

	e := CoreBenchEntry{
		Schema:     report.SchemaVersion,
		GitSHA:     report.GitSHA(),
		UnixMS:     time.Now().UnixMilli(),
		Workload:   prof.Name,
		Controller: kind.String(),
		N:          opts.N,
		BatchSize:  trace.DefaultBatchSize,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	var matRes, strRes core.Result
	matRes, e.MaterializedWallMS, err = bestOf3(func() (core.Result, error) {
		all, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			return core.Result{}, err
		}
		return core.RunContext(opts.ctx(), kind, shape, core.Options{}, trace.FromSlice(all), 0)
	})
	if err != nil {
		return e, err
	}
	strRes, e.StreamedWallMS, err = bestOf3(func() (core.Result, error) {
		return core.RunStreamContext(opts.ctx(), kind, shape, core.Options{}, trace.NewReader(bytes.NewReader(data)), 0, 0)
	})
	if err != nil {
		return e, err
	}
	if !sameCoreResult(matRes, strRes) {
		return e, fmt.Errorf("regress: streamed and materialized runs diverged on %s/%s", prof.Name, kind)
	}
	if opts.Shards > 1 {
		e.Shards = opts.Shards
		var shardRes core.Result
		shardRes, e.ShardedWallMS, err = bestOf3(func() (core.Result, error) {
			return core.RunShardedContext(opts.ctx(), kind, shape, core.Options{},
				trace.NewReader(bytes.NewReader(data)), 0, 0, opts.Shards)
		})
		if err != nil {
			return e, err
		}
		if !sameCoreResult(strRes, shardRes) {
			return e, fmt.Errorf("regress: sharded and streamed runs diverged on %s/%s", prof.Name, kind)
		}
		if e.ShardedWallMS > 0 {
			e.ShardedAccPS = float64(opts.N) / (e.ShardedWallMS / 1e3)
		}
		if e.StreamedWallMS > 0 {
			e.ShardedRatio = e.StreamedWallMS / e.ShardedWallMS
		}
	}
	if e.MaterializedWallMS > 0 {
		e.MaterializedAccPS = float64(opts.N) / (e.MaterializedWallMS / 1e3)
	}
	if e.StreamedWallMS > 0 {
		e.StreamedAccPS = float64(opts.N) / (e.StreamedWallMS / 1e3)
	}
	if e.MaterializedAccPS > 0 {
		e.Ratio = e.StreamedAccPS / e.MaterializedAccPS
	}
	return e, nil
}

// AppendCoreBench appends entry to the hot-path ledger at path; see
// AppendLedger for the file discipline.
func AppendCoreBench(path string, entry CoreBenchEntry) error {
	return AppendLedger(path, entry)
}

// ShardScalePoint is one shard count's timing inside a ShardScaleEntry.
type ShardScalePoint struct {
	Shards int     `json:"shards"`
	WallMS float64 `json:"wall_ms"`
	AccPS  float64 `json:"accesses_per_sec"`
	// Ratio is this point's throughput over the entry's streamed serial
	// baseline; > 1 means the sharded driver wins at this count. The
	// shards=1 point exercises the PlanShards serial fallback, so its ratio
	// is the single-shard regression (should sit within noise of 1.0).
	Ratio float64 `json:"ratio"`
}

// ShardScaleEntry is one shard-scaling sweep: the streamed serial baseline
// plus the set-sharded driver at each requested shard count, every point
// verified byte-identical to the baseline before it is reported. The Bench
// tag discriminates these records from plain CoreBench entries in the shared
// BENCH_core.json ledger.
type ShardScaleEntry struct {
	Schema     int    `json:"schema"`
	Bench      string `json:"bench"`
	GitSHA     string `json:"git_sha"`
	UnixMS     int64  `json:"unix_ms"`
	Workload   string `json:"workload"`
	Controller string `json:"controller"`
	N          int    `json:"n"`
	BatchSize  int    `json:"batch_size"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	StreamedWallMS float64 `json:"streamed_wall_ms"`
	StreamedAccPS  float64 `json:"streamed_accesses_per_sec"`

	Points []ShardScalePoint `json:"points"`
}

// ShardScale sweeps the set-sharded driver across counts (e.g. 1,2,4,8) on
// the RMW controller over one streamed binary trace, comparing each count's
// throughput to the serial streamed baseline. Every sharded run's Result is
// checked identical to the baseline's — the sweep refuses to report a
// speedup (or a regression) on diverged output. Counts <= 1 degrade to the
// serial driver inside core.RunShardedContext, so the shards=1 point
// measures the fallback path's overhead, not a one-shard ring.
func ShardScale(opts Options, counts []int) (ShardScaleEntry, error) {
	const kind = core.RMW // WG keeps cross-set state and would fall back serial
	shape := cache.DefaultConfig()
	prof := workload.Profiles()[0]
	accs, err := workload.Take(prof, opts.Seed, opts.N)
	if err != nil {
		return ShardScaleEntry{}, err
	}
	var enc bytes.Buffer
	if _, err := trace.WriteAll(&enc, trace.FromSlice(accs), 0); err != nil {
		return ShardScaleEntry{}, err
	}
	data := enc.Bytes()

	e := ShardScaleEntry{
		Schema:     report.SchemaVersion,
		Bench:      "shard_scale",
		GitSHA:     report.GitSHA(),
		UnixMS:     time.Now().UnixMilli(),
		Workload:   prof.Name,
		Controller: kind.String(),
		N:          opts.N,
		BatchSize:  trace.DefaultBatchSize,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	baseRes, baseWall, err := bestOf3(func() (core.Result, error) {
		return core.RunStreamContext(opts.ctx(), kind, shape, core.Options{}, trace.NewReader(bytes.NewReader(data)), 0, 0)
	})
	if err != nil {
		return e, err
	}
	e.StreamedWallMS = baseWall
	if baseWall > 0 {
		e.StreamedAccPS = float64(opts.N) / (baseWall / 1e3)
	}

	for _, shards := range counts {
		shards := shards
		res, wall, err := bestOf3(func() (core.Result, error) {
			return core.RunShardedContext(opts.ctx(), kind, shape, core.Options{},
				trace.NewReader(bytes.NewReader(data)), 0, 0, shards)
		})
		if err != nil {
			return e, err
		}
		if !sameCoreResult(baseRes, res) {
			return e, fmt.Errorf("regress: shard-scale run at %d shards diverged from streamed baseline on %s/%s",
				shards, prof.Name, kind)
		}
		p := ShardScalePoint{Shards: shards, WallMS: wall}
		if wall > 0 {
			p.AccPS = float64(opts.N) / (wall / 1e3)
			p.Ratio = baseWall / wall
		}
		e.Points = append(e.Points, p)
	}
	return e, nil
}

// AppendShardScale appends entry to the hot-path ledger at path; see
// AppendLedger for the file discipline.
func AppendShardScale(path string, entry ShardScaleEntry) error {
	return AppendLedger(path, entry)
}
