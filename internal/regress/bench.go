package regress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/experiments"
	"cache8t/internal/hier"
	"cache8t/internal/report"
	"cache8t/internal/sram"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// Rounds is how many times a bench runs each of its modes. Every round runs
// each mode once, so load that comes and goes on a shared host lands on all
// of them alike, and the rounds rotate which mode goes first, so any cost of
// going first does not land on one mode.
const Rounds = 9

// ThroughputEntry is one record of the hot-path ledger, BENCH_core.json: the
// wall times of several ways of running one simulation over the same binary
// trace. Every run's result is checked identical to the first run's before
// any number is reported, and Identity keeps the sha256 of those bytes, so
// two entries at the same n and seed also show whether a simulated count
// moved between them.
type ThroughputEntry struct {
	Schema int `json:"schema"`
	// Bench names the mode list: "core" (streamed and materialized),
	// "shard_scale" (those plus the set-sharded driver at each shard
	// count) or "hier" (the two-level driver, streamed and materialized).
	Bench    string `json:"bench"`
	GitSHA   string `json:"git_sha"`
	UnixMS   int64  `json:"unix_ms"`
	Workload string `json:"workload"`
	// Controller is the simulated controller; in a hier entry it is the
	// L1's, and L2Controller the second level's.
	Controller   string `json:"controller"`
	L2Controller string `json:"l2_controller,omitempty"`
	N            int    `json:"n"`
	BatchSize    int    `json:"batch_size"`
	// GoMaxProcs and NumCPU make parallel ratios interpretable: a sharded
	// ratio below 1.0 measured on one CPU is expected overhead, not a
	// regression.
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Rounds     int          `json:"rounds"`
	Identity   string       `json:"identity_sha256"`
	Modes      []ModeTiming `json:"modes"`
}

// ModeTiming is one mode's wall times over all the rounds of an entry.
type ModeTiming struct {
	Mode     string  `json:"mode"`
	MedianMS float64 `json:"median_ms"`
	Q1MS     float64 `json:"q1_ms"`
	Q3MS     float64 `json:"q3_ms"`
	// AccPS is the throughput at the median wall time.
	AccPS float64 `json:"accesses_per_sec"`
	// Ratio is the streamed mode's median over this mode's: above 1 this
	// mode is faster than streaming. RatioLow and RatioHigh are the
	// quartiles of the per-round ratios, streamed's wall time over this
	// mode's in the same round, which cancels host load that lasts a round;
	// a mode that runs the same code as streamed should have 1.0 between
	// them.
	Ratio     float64 `json:"ratio"`
	RatioLow  float64 `json:"ratio_low"`
	RatioHigh float64 `json:"ratio_high"`
}

// mode is one way of running the simulation a bench times.
type mode[R any] struct {
	name string
	run  func() (R, error)
}

// measure runs modes round-robin for rounds rounds, rotating which mode goes
// first, and checks each run's identity bytes against the first run's. It
// fills in e the sha256 of those bytes and each mode's median and quartile
// wall times, with ratios over modes[0], the streamed baseline.
func measure[R any](e *ThroughputEntry, rounds int, modes []mode[R], identity func(R) ([]byte, error)) error {
	walls := make([][]float64, len(modes))
	var first []byte
	for r := range rounds {
		for i := range modes {
			j := (r + i) % len(modes)
			runtime.GC() // no run pays for the garbage of the one before
			start := time.Now()
			res, err := modes[j].run()
			wall := time.Since(start).Seconds() * 1e3
			if err != nil {
				return fmt.Errorf("regress: %s, round %d: %w", modes[j].name, r+1, err)
			}
			id, err := identity(res)
			if err != nil {
				return err
			}
			if r == 0 && i == 0 {
				first = id
			} else if !bytes.Equal(id, first) {
				return fmt.Errorf("regress: %s diverged in round %d of %d from %s in round 1 (%s/%s)",
					modes[j].name, r+1, rounds, modes[0].name, e.Workload, e.Controller)
			}
			walls[j] = append(walls[j], wall)
		}
	}
	sum := sha256.Sum256(first)
	e.Rounds, e.Identity = rounds, hex.EncodeToString(sum[:])
	for j, m := range modes {
		e.Modes = append(e.Modes, summarize(m.name, walls[j], walls[0], e.N))
	}
	return nil
}

// summarize is one mode's ModeTiming, from its wall time in each round and
// the streamed baseline's in the same rounds.
func summarize(name string, walls, base []float64, n int) ModeTiming {
	paired := make([]float64, len(walls))
	for r, w := range walls {
		paired[r] = base[r] / w
	}
	med := stats.Quantile(walls, 0.5)
	return ModeTiming{
		Mode:      name,
		MedianMS:  med,
		Q1MS:      stats.Quantile(walls, 0.25),
		Q3MS:      stats.Quantile(walls, 0.75),
		AccPS:     float64(n) / (med / 1e3),
		Ratio:     stats.Quantile(base, 0.5) / med,
		RatioLow:  stats.Quantile(paired, 0.25),
		RatioHigh: stats.Quantile(paired, 0.75),
	}
}

// eventIdentity is what two runs of one simulation must agree on: every
// counter of the result's ledger plus its full sram event ledger, which
// report.Ledger leaves out.
type eventIdentity struct {
	Ledger report.ControllerLedger `json:"ledger"`
	Events [sram.NumEvents]uint64  `json:"events"`
}

func identityOf(res core.Result) eventIdentity {
	return eventIdentity{report.Ledger(res), res.Events.Counts()}
}

// coreIdentity is the identity bytes of a single-level result.
func coreIdentity(res core.Result) ([]byte, error) {
	return report.Canonical(identityOf(res))
}

// hierIdentity is the identity bytes of a two-level result: both levels
// the way coreIdentity has them, plus the traffic between them.
func hierIdentity(res hier.Result) ([]byte, error) {
	return report.Canonical(struct {
		L1      eventIdentity `json:"l1"`
		L2      eventIdentity `json:"l2"`
		Traffic hier.Counts   `json:"traffic"`
	}{identityOf(res.L1), identityOf(res.L2), res.Traffic})
}

// startBench stamps a new entry and encodes its input: opts.N accesses of
// the first bundled profile as one in-memory binary trace.
func startBench(opts Options, bench string) (ThroughputEntry, []byte, error) {
	prof := workload.Profiles()[0]
	e := ThroughputEntry{
		Schema:     report.SchemaVersion,
		Bench:      bench,
		GitSHA:     report.GitSHA(),
		UnixMS:     time.Now().UnixMilli(),
		Workload:   prof.Name,
		N:          opts.N,
		BatchSize:  trace.DefaultBatchSize,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	accs, err := workload.Take(prof, opts.Seed, opts.N)
	if err != nil {
		return e, nil, err
	}
	var enc bytes.Buffer
	if _, err := trace.WriteAll(&enc, trace.FromSlice(accs), 0); err != nil {
		return e, nil, err
	}
	return e, enc.Bytes(), nil
}

// replayModes are the two modes every bench times: "streamed" decodes the
// trace batch by batch as it replays, "materialized" decodes all of it into
// a slice first.
func replayModes[R any](data []byte, run func(trace.Stream) (R, error)) []mode[R] {
	return []mode[R]{
		{"streamed", func() (R, error) { return run(trace.NewReader(bytes.NewReader(data))) }},
		{"materialized", func() (R, error) {
			all, err := trace.ReadAll(bytes.NewReader(data))
			if err != nil {
				var zero R
				return zero, err
			}
			return run(trace.FromSlice(all))
		}},
	}
}

// CoreBench times the WG controller over one binary trace, streamed and
// materialized.
func CoreBench(opts Options) (ThroughputEntry, error) {
	return coreBench(opts, "core", core.WG, nil)
}

// ShardScale adds the set-sharded driver at each of counts to CoreBench's
// modes, on the kind controller. A count of 1 falls back to the serial
// driver, so shards=1 runs the same code as streamed and its ratio band
// should contain 1.0.
func ShardScale(opts Options, kind core.Kind, counts []int) (ThroughputEntry, error) {
	return coreBench(opts, "shard_scale", kind, counts)
}

func coreBench(opts Options, bench string, kind core.Kind, counts []int) (ThroughputEntry, error) {
	e, data, err := startBench(opts, bench)
	if err != nil {
		return e, err
	}
	e.Controller = kind.String()
	ctx, shape := opts.ctx(), cache.DefaultConfig()
	run := func(s trace.Stream, shards int) (core.Result, error) {
		res, err := core.RunSchemes(ctx, []core.Scheme{{Kind: kind}}, shape, func() (trace.Stream, error) { return s, nil }, 0, 0, shards)
		if err != nil {
			return core.Result{}, err
		}
		return res[0], nil
	}
	modes := replayModes(data, func(s trace.Stream) (core.Result, error) { return run(s, 1) })
	for _, shards := range counts {
		modes = append(modes, mode[core.Result]{fmt.Sprintf("shards=%d", shards), func() (core.Result, error) {
			return run(trace.NewReader(bytes.NewReader(data)), shards)
		}})
	}
	err = measure(&e, Rounds, modes, coreIdentity)
	return e, err
}

// HierBench times the two-level driver, streamed and materialized: a WG L1,
// whose premature write-backs exercise the bridge's on-chip event path,
// over the default RMW second level.
func HierBench(opts Options) (ThroughputEntry, error) {
	cfg := hier.Config{
		L1Schemes: []core.Scheme{{Kind: core.WG}},
		L1:        cache.DefaultConfig(),
		L2Kind:    core.RMW,
		L2:        experiments.HierL2Shape(cache.DefaultConfig()),
	}
	e, data, err := startBench(opts, "hier")
	if err != nil {
		return e, err
	}
	e.Controller, e.L2Controller = core.WG.String(), cfg.L2Kind.String()
	ctx := opts.ctx()
	modes := replayModes(data, func(s trace.Stream) (hier.Result, error) {
		res, err := hier.RunContext(ctx, cfg, s, 0, 0)
		if err != nil {
			return hier.Result{}, err
		}
		return res[0], nil
	})
	err = measure(&e, Rounds, modes, hierIdentity)
	return e, err
}
