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

// Checkpoint carries a single-level run's checkpoint knobs together: Sink
// receives a serialized controller snapshot every Every batches, and
// Resume, when non-nil, restarts the run from an earlier snapshot instead of
// access zero. The zero value runs without checkpoints. Only a serial run
// checkpoints: RunSpec ignores all three on a sharded spec, and a hierarchy
// spec never takes them.
type Checkpoint struct {
	Every  int
	Sink   core.CheckpointSink
	Resume []byte
}

// RunSpec executes a validated single-level spec over the stream from open
// (nil: a fresh deterministic generator of the spec's workload per open,
// bounded inside the run by spec.N) and returns the controller result.
// Shards and batch come from the spec; Shards > 1 runs the set-sharded
// driver, anything else the serial streaming driver with ck's checkpoints.
// resumed reports whether ck.Resume was actually used: a blob that
// core.ErrBadCheckpoint rejects (unreadable, another version, another
// controller, options or cache shape than the spec's, or a position this
// run's stream or budget does not reach) falls back to a straight run from
// a freshly opened stream, since checkpoints are an optimization and the
// determinism contract makes the two byte-identical. Any other resume error
// is a genuine run failure and propagates.
func RunSpec(ctx context.Context, spec JobSpec, open func() (trace.Stream, error), ck Checkpoint) (res core.Result, resumed bool, err error) {
	kind, err := core.ParseKind(spec.Controller)
	if err != nil {
		return core.Result{}, false, err
	}
	cfg, err := spec.CacheConfig()
	if err != nil {
		return core.Result{}, false, err
	}
	sc := core.Scheme{Kind: kind, Opts: spec.CoreOptions()}
	open = specSource(spec, open)
	if spec.Shards > 1 {
		rs, err := core.RunSchemes(ctx, []core.Scheme{sc}, cfg, open, spec.N, spec.Batch, spec.Shards)
		if err != nil {
			return core.Result{}, false, err
		}
		return rs[0], false, nil
	}
	drain := func(d *core.Driver, err error) (core.Result, error) {
		if err != nil {
			return core.Result{}, err
		}
		s, err := open()
		if err != nil {
			return core.Result{}, err
		}
		d.CheckpointEvery(ck.Every, ck.Sink)
		rs, err := d.Drain(ctx, s, spec.N, spec.Batch)
		if err != nil {
			return core.Result{}, err
		}
		return rs[0], nil
	}
	if ck.Resume != nil {
		res, err := drain(core.ResumeDriver(ck.Resume, sc, cfg))
		if !errors.Is(err, core.ErrBadCheckpoint) {
			return res, err == nil, err
		}
		// Fall through: the blob cannot resume this run. Restart from
		// scratch on a fresh stream.
	}
	res, err = drain(core.NewDriver(cfg, sc))
	return res, false, err
}

// specSource returns open, or when it is nil a fresh deterministic
// generator of the spec's workload per call.
func specSource(spec JobSpec, open func() (trace.Stream, error)) func() (trace.Stream, error) {
	if open != nil {
		return open
	}
	return func() (trace.Stream, error) { return workload.Stream(spec.Workload, spec.Seed) }
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
// path and Execute share run, so the bytes a client fetches from
// `GET /v1/jobs/{id}/result` are identical to the bytes Execute produces
// for the same spec and source — the end-to-end identity the smoke test and
// cmd/sramload verify.
func Execute(ctx context.Context, spec JobSpec, source string, open func() (trace.Stream, error)) ([]byte, error) {
	art, _, err := run(ctx, spec, source, open, Checkpoint{})
	if err != nil {
		return nil, err
	}
	return report.Encode(art)
}

// run is the one path from a validated spec to its artifact: a single-level
// spec through RunSpec with ck, a hierarchy spec through the two-level
// driver. Hierarchy runs are serial (Validate rejects shards > 1) and never
// checkpoint — the snapshot codec covers one controller and one cache, not
// an L1/L2 pair — so a recovered hierarchy job re-runs from access zero,
// which the determinism contract makes byte-identical.
func run(ctx context.Context, spec JobSpec, source string, open func() (trace.Stream, error), ck Checkpoint) (*report.Artifact, bool, error) {
	if !spec.Hierarchy {
		res, resumed, err := RunSpec(ctx, spec, open, ck)
		if err != nil {
			return nil, false, err
		}
		return Artifact(spec, source, res), resumed, nil
	}
	cfg, err := spec.HierConfig()
	if err != nil {
		return nil, false, err
	}
	s, err := specSource(spec, open)()
	if err != nil {
		return nil, false, err
	}
	res, err := hier.RunContext(ctx, cfg, s, spec.N, spec.Batch)
	if err != nil {
		return nil, false, err
	}
	return HierArtifact(spec, source, res[0]), false, nil
}
