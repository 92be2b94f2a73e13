package server

import (
	"context"
	"errors"
	"fmt"

	"cache8t/internal/core"
	"cache8t/internal/energy"
	"cache8t/internal/hier"
	"cache8t/internal/report"
	"cache8t/internal/sram"
	"cache8t/internal/timing"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// OpenSource returns the stream opener for a validated spec with no uploaded
// trace: a fresh deterministic generator per open, bounded inside the run by
// spec.N.
func OpenSource(spec JobSpec) func() (trace.Stream, error) {
	return func() (trace.Stream, error) {
		return workload.Stream(spec.Workload, spec.Seed)
	}
}

// RunSpec executes a validated spec over the stream from open and returns the
// controller result. Shards and batch come from the spec; RunShardedContext
// degrades to the serial streaming driver when shards <= 1, so there is one
// execution path for every job. wrap, when non-nil, interposes on the opened
// stream — the daemon hangs its progress counter there.
func RunSpec(ctx context.Context, spec JobSpec, open func() (trace.Stream, error), wrap func(trace.Stream) trace.Stream) (core.Result, error) {
	kind, err := core.ParseKind(spec.Controller)
	if err != nil {
		return core.Result{}, err
	}
	cfg, err := spec.CacheConfig()
	if err != nil {
		return core.Result{}, err
	}
	if open == nil {
		open = OpenSource(spec)
	}
	s, err := open()
	if err != nil {
		return core.Result{}, err
	}
	if wrap != nil {
		s = wrap(s)
	}
	return core.RunShardedContext(ctx, kind, cfg, spec.CoreOptions(), s, spec.N, spec.Batch, spec.Shards)
}

// RunSpecDurable executes a validated spec with checkpointing: sink receives
// a serialized controller snapshot every `every` batches, and resumeBlob,
// when non-nil, restarts the run from a previously written snapshot instead
// of access zero. resumed reports whether the checkpoint was actually used —
// an unreadable or mismatched blob (core.ErrBadCheckpoint) falls back to a
// straight run from a freshly opened stream, since checkpoints are an
// optimization and the determinism contract makes the two byte-identical.
// Any other resume error is a genuine run failure and propagates.
//
// Checkpointing rides the serial streaming driver, so this path ignores
// spec.Shards; callers gate on Shards <= 1.
func RunSpecDurable(ctx context.Context, spec JobSpec, open func() (trace.Stream, error), wrap func(trace.Stream) trace.Stream, resumeBlob []byte, every int, sink core.CheckpointSink) (res core.Result, resumed bool, err error) {
	kind, err := core.ParseKind(spec.Controller)
	if err != nil {
		return core.Result{}, false, err
	}
	cfg, err := spec.CacheConfig()
	if err != nil {
		return core.Result{}, false, err
	}
	if open == nil {
		open = OpenSource(spec)
	}
	drain := func(d *core.Driver, err error) (core.Result, error) {
		if err != nil {
			return core.Result{}, err
		}
		s, err := open()
		if err != nil {
			return core.Result{}, err
		}
		if wrap != nil {
			s = wrap(s)
		}
		d.CheckpointEvery(every, sink)
		return d.Drain(ctx, s, spec.N, spec.Batch)
	}
	if resumeBlob != nil {
		res, err := drain(core.ResumeDriver(resumeBlob))
		if !errors.Is(err, core.ErrBadCheckpoint) {
			return res, err == nil, err
		}
		// Fall through: the blob does not describe this run (corrupt, wrong
		// version, wrong geometry). Restart from scratch on a fresh stream.
	}
	res, err = drain(core.NewDriver(kind, cfg, spec.CoreOptions()))
	return res, false, err
}

// ConfigMap flattens the result-shaping knobs of a spec into the artifact's
// config map. Execution knobs (shards, batch) are deliberately absent: they
// cannot change results — the sharding and streaming equivalence tests pin
// that — so a sharded daemon run and a serial local rerun hash identically.
func ConfigMap(spec JobSpec, source string) map[string]string {
	m := map[string]string{
		"source":                  source,
		"controller":              spec.Controller,
		"n":                       fmt.Sprint(spec.N),
		"seed":                    fmt.Sprint(spec.Seed),
		"cache_size_bytes":        fmt.Sprint(spec.Cache.SizeKB * 1024),
		"cache_ways":              fmt.Sprint(spec.Cache.Ways),
		"cache_block_bytes":       fmt.Sprint(spec.Cache.BlockBytes),
		"cache_policy":            spec.Cache.Policy,
		"buffer_depth":            fmt.Sprint(spec.Options.BufferDepth),
		"silent_elision_disabled": fmt.Sprint(spec.Options.DisableSilentElision),
		"count_fill_traffic":      fmt.Sprint(spec.Options.CountFillTraffic),
		"vdd":                     fmt.Sprint(spec.VDD),
		"freq_mhz":                fmt.Sprint(spec.FreqMHz),
	}
	// Hierarchy keys exist only on hierarchy jobs so every pre-existing
	// single-level spec keeps its config hash (and its cached results).
	if spec.Hierarchy && spec.L2 != nil {
		m["hierarchy"] = "true"
		m["l2_controller"] = spec.L2.Controller
		m["l2_size_bytes"] = fmt.Sprint(spec.L2.Cache.SizeKB * 1024)
		m["l2_ways"] = fmt.Sprint(spec.L2.Cache.Ways)
		m["l2_block_bytes"] = fmt.Sprint(spec.L2.Cache.BlockBytes)
		m["l2_policy"] = spec.L2.Cache.Policy
		m["l2_buffer_depth"] = fmt.Sprint(spec.L2.Options.BufferDepth)
		m["l2_silent_elision_disabled"] = fmt.Sprint(spec.L2.Options.DisableSilentElision)
		m["l2_count_fill_traffic"] = fmt.Sprint(spec.L2.Options.CountFillTraffic)
	}
	return m
}

// RunHierSpec executes a validated hierarchy spec over the stream from open
// and returns the two-level result. Hierarchy runs are serial — Validate
// rejects shards > 1 — and poll ctx per batch like every other driver.
func RunHierSpec(ctx context.Context, spec JobSpec, open func() (trace.Stream, error), wrap func(trace.Stream) trace.Stream) (hier.Result, error) {
	cfg, err := spec.HierConfig()
	if err != nil {
		return hier.Result{}, err
	}
	if open == nil {
		open = OpenSource(spec)
	}
	s, err := open()
	if err != nil {
		return hier.Result{}, err
	}
	if wrap != nil {
		s = wrap(s)
	}
	return hier.RunContext(ctx, cfg, s, spec.N, spec.Batch)
}

// Artifact assembles the deterministic run artifact for a finished job: the
// spec's config map, the controller's full event ledger, and the modeled
// scalar metrics. Wall-clock and engine snapshots are deliberately left
// unset — an artifact fetched from the daemon must be byte-identical to one
// built by an in-process serial run of the same spec, and only fully
// deterministic fields can promise that. Timings live on the job status
// instead.
func Artifact(spec JobSpec, source string, res core.Result) *report.Artifact {
	art := report.New("sramd", spec.Seed)
	art.Config = ConfigMap(spec, source)
	art.AddController(res)
	art.SetMetric("accesses_per_request", res.AccessesPerRequest())
	art.SetMetric("miss_rate", res.Cache.MissRate())
	tp := timing.DefaultParams()
	if trep, err := timing.Evaluate(res, tp); err == nil {
		art.SetMetric("cpi", trep.CPI())
		art.SetMetric("avg_read_latency_cycles", trep.AvgReadLatency)
	}
	if erep, err := energy.Evaluate(res, sram.OperatingPoint{VoltageV: spec.VDD, FreqMHz: spec.FreqMHz}, timing.DefaultParams()); err == nil {
		art.SetMetric("dynamic_j", erep.DynamicJ)
		art.SetMetric("leakage_j", erep.LeakageJ)
	}
	return art
}

// HierArtifact assembles the deterministic artifact for a finished hierarchy
// job: both levels' full event ledgers (controller names prefixed "L1:" and
// "L2:"), the merged traffic metrics, and per-level modeled scalars. Like
// Artifact, only fully deterministic fields are set, so a daemon-fetched
// hierarchy artifact is byte-identical to an in-process Execute of the same
// spec.
func HierArtifact(spec JobSpec, source string, res hier.Result) *report.Artifact {
	art := report.New("sramd", spec.Seed)
	art.Config = ConfigMap(spec, source)
	l1 := report.Ledger(res.L1)
	l1.Controller = "L1:" + l1.Controller
	l2 := report.Ledger(res.L2)
	l2.Controller = "L2:" + l2.Controller
	art.Controllers = append(art.Controllers, l1, l2)

	art.SetMetric("l1_accesses_per_request", res.L1.AccessesPerRequest())
	art.SetMetric("l1_miss_rate", res.L1.Cache.MissRate())
	art.SetMetric("l2_accesses_per_request", res.L2.AccessesPerRequest())
	art.SetMetric("l2_miss_rate", res.L2.Cache.MissRate())
	art.SetMetric("refills", float64(res.Traffic.Refills))
	art.SetMetric("writebacks", float64(res.Traffic.Writebacks))
	art.SetMetric("premature_wbs", float64(res.Traffic.PrematureWBs))
	art.SetMetric("l2_visible", float64(res.L2Visible()))
	art.SetMetric("l2_visible_per_request", res.L2VisiblePerRequest())
	point := sram.OperatingPoint{VoltageV: spec.VDD, FreqMHz: spec.FreqMHz}
	if erep, err := energy.Evaluate(res.L1, point, timing.DefaultParams()); err == nil {
		art.SetMetric("l1_dynamic_j", erep.DynamicJ)
		art.SetMetric("l1_leakage_j", erep.LeakageJ)
	}
	if erep, err := energy.Evaluate(res.L2, point, timing.DefaultParams()); err == nil {
		art.SetMetric("l2_dynamic_j", erep.DynamicJ)
		art.SetMetric("l2_leakage_j", erep.LeakageJ)
	}
	return art
}

// Execute is the in-process reference runner: it runs a validated spec to
// completion and returns the encoded canonical artifact. The daemon's job
// path and Execute share RunSpec/RunHierSpec and Artifact/HierArtifact, so
// the bytes a client fetches from `GET /v1/jobs/{id}/result` are identical
// to the bytes Execute produces for the same spec and source — the
// end-to-end identity the smoke test and cmd/sramload verify.
func Execute(ctx context.Context, spec JobSpec, source string, open func() (trace.Stream, error)) ([]byte, error) {
	if spec.Hierarchy {
		res, err := RunHierSpec(ctx, spec, open, nil)
		if err != nil {
			return nil, err
		}
		return report.Encode(HierArtifact(spec, source, res))
	}
	res, err := RunSpec(ctx, spec, open, nil)
	if err != nil {
		return nil, err
	}
	return report.Encode(Artifact(spec, source, res))
}
