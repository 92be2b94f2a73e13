// Command sramload drives sramd daemons. It runs the end-to-end service
// gates, one row of the scenario table in scenario.go each, and generates
// load, appending identity-verified throughput entries to a ledger.
//
// Usage:
//
//	sramload -scenario serve -sramd ./sramd-binary          # CI service gate
//	sramload -scenario serve -sramd ./sramd-binary -update  # regenerate golden/serve.json
//	sramload -scenario cache|hier|crash|coord -sramd ./sramd-binary
//	sramload -addr http://127.0.0.1:8344 -clients 8 -jobs 32
//	sramload -sramd ./sramd-binary -clients 4 -jobs 16      # spawn a daemon
//	sramload -repeat 16 -sramd ./sramd-binary               # result-cache bench
//	sramload -fleet 3 -jobs 12 -sramd ./sramd-binary        # coordinated-sweep bench
//	sramload -version
//
// A scenario passes when its result is byte-identical to the in-process
// serial run and to its golden, every /metrics predicate holds, and every
// surviving process exits cleanly on SIGTERM. Only serve and hier own
// their goldens, so only they accept -update.
//
// The ledger modes append one entry to -out once the identity check
// passes: -clients/-jobs ("serve_load") records the latency of clients
// waiting on the SSE stream of a -no-cache daemon; -repeat K ("rescache")
// the cache hit rate; -fleet N ("coord_fleet") one sweep of -jobs seeds.
//
// Exit status: 0 success, 1 any failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cache8t/internal/coord"
	"cache8t/internal/regress"
	"cache8t/internal/report"
	"cache8t/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sramload: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "", "base URL of a running sramd (e.g. http://127.0.0.1:8344)")
		sramdBin    = flag.String("sramd", "", "path to an sramd binary to spawn on ephemeral ports for the run")
		scenarioFlg = flag.String("scenario", "", "run one end-to-end gate: serve, cache, hier, crash or coord")
		update      = flag.Bool("update", false, "with -scenario serve or hier, regenerate the row's golden instead of comparing")
		clients     = flag.Int("clients", 4, "concurrent clients")
		jobs        = flag.Int("jobs", 16, "total jobs to submit (with -fleet: sweep points)")
		controller  = flag.String("controller", "wgrb", "controller kind for every job")
		workloadFlg = flag.String("workload", "bwaves", "bundled workload for every job")
		n           = flag.Int("n", 200_000, "accesses per job")
		seed        = flag.Uint64("seed", 1, "workload seed")
		shards      = flag.Int("shards", 0, "set-shard each job (set-local controllers only)")
		repeat      = flag.Int("repeat", 0, "resubmit the same spec this many times and report cache hit-rate + latency split")
		fleetSize   = flag.Int("fleet", 0, "spawn this many workers plus a coordinator and drive a sweep through the fleet")
		out         = flag.String("out", "BENCH_core.json", "throughput ledger the ledger modes append their entry to")
		timeout     = flag.Duration("timeout", 5*time.Minute, "overall deadline")
		showVersion = flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(report.Version("sramload"))
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *scenarioFlg != "" || *update {
		i := slices.IndexFunc(scenarios, func(sc scenario) bool { return sc.name == *scenarioFlg })
		switch {
		case i < 0:
			return fmt.Errorf("unknown -scenario %q (see -help)", *scenarioFlg)
		case *sramdBin == "":
			return errors.New("-scenario requires -sramd: every row spawns its own processes")
		case *update && !scenarios[i].ownsGolden:
			return fmt.Errorf("-update: scenario %s compares against %s, which it does not own", *scenarioFlg, scenarios[i].golden)
		}
		return runScenario(ctx, scenarios[i], *sramdBin, *update)
	}

	spec := server.JobSpec{Controller: *controller, Workload: *workloadFlg, N: *n, Seed: *seed, Shards: *shards}
	spec.Normalize()
	if err := spec.Validate(false); err != nil {
		return err
	}
	var workers int
	var args []string
	switch {
	case *fleetSize > 0:
		if *sramdBin == "" {
			return errors.New("-fleet requires -sramd: it spawns the fleet itself")
		}
		// Scale dispatch parallelism with the fleet so the bench fans out
		// instead of trickling through the default window.
		workers, args = *fleetSize, []string{"-dispatch", strconv.Itoa(2 * *fleetSize)}
	case *repeat == 0:
		args = []string{"-no-cache"}
	}
	c := &client{base: strings.TrimRight(*addr, "/")}
	var p *procs
	if *sramdBin != "" {
		var err error
		if p, err = spawnProcs(ctx, *sramdBin, workers, args); err != nil {
			return err
		}
		defer p.kill()
		c = &p.front.client
	}
	if c.base == "" {
		return errors.New("need -addr or -sramd")
	}

	var entry loadEntry
	var err error
	switch {
	case *fleetSize > 0:
		entry, err = runFleet(ctx, c, *fleetSize, spec, *jobs)
	case *repeat > 0:
		entry, err = runRepeat(ctx, c, spec, *repeat)
	default:
		entry, err = runLoad(ctx, c, spec, *clients, *jobs)
	}
	if err != nil {
		return err
	}
	if p != nil {
		if err := p.stop(); err != nil {
			return err
		}
	}
	if err := regress.AppendLedger(*out, entry); err != nil {
		return err
	}
	fmt.Printf("appended %s entry to %s\n", entry.Mode, *out)
	return nil
}

// runLoad is the load generator: latency percentiles and aggregate
// throughput of jobs submissions over clients concurrent clients.
func runLoad(ctx context.Context, c *client, spec server.JobSpec, clients, jobs int) (loadEntry, error) {
	clients = max(clients, 1)
	jobs = max(jobs, clients)
	wall, cached, uncached, err := drive(ctx, c, spec, clients, jobs)
	if err != nil {
		return loadEntry{}, err
	}
	e := newEntry("serve_load", clients, jobs, spec, wall, slices.Concat(cached, uncached))
	e.Shards = spec.Shards
	e.AccessesPerSec = e.JobsPerSec * float64(spec.N)
	fmt.Printf("%d jobs x %d accesses over %d clients in %v\n", jobs, spec.N, clients, wall.Round(time.Millisecond))
	fmt.Printf("latency p50 %.1f ms, p95 %.1f ms, p99 %.1f ms; %.0f accesses/sec aggregate\n",
		e.P50MS, e.P95MS, e.P99MS, e.AccessesPerSec)
	return e, nil
}

// runRepeat is the result-cache bench: k sequential submissions of spec, of
// which all but the first should hit. It records the hit rate and latencies.
func runRepeat(ctx context.Context, c *client, spec server.JobSpec, k int) (loadEntry, error) {
	k = max(k, 2) // one miss plus at least one chance to hit
	wall, cached, uncached, err := drive(ctx, c, spec, 1, k)
	if err != nil {
		return loadEntry{}, err
	}
	if len(cached) == 0 {
		return loadEntry{}, fmt.Errorf("no submission hit the cache in %d repeats — is the daemon running with -no-cache?", k)
	}
	e := newEntry("rescache", 1, k, spec, wall, slices.Concat(cached, uncached))
	sort.Float64s(cached)
	sort.Float64s(uncached)
	e.CachedJobs = len(cached)
	e.HitRate = float64(len(cached)) / float64(k)
	e.CachedP50MS, e.CachedP95MS = percentile(cached, 0.50), percentile(cached, 0.95)
	e.UncachedP50MS, e.UncachedP95MS = percentile(uncached, 0.50), percentile(uncached, 0.95)
	fmt.Printf("%d repeats: %d cache hits (%.0f%% hit rate)\n", k, e.CachedJobs, 100*e.HitRate)
	fmt.Printf("uncached p50 %.1f ms p95 %.1f ms; cached p50 %.2f ms p95 %.2f ms\n",
		e.UncachedP50MS, e.UncachedP95MS, e.CachedP50MS, e.CachedP95MS)
	return e, nil
}

// drive runs jobs copies of spec over clients concurrent clients, checks
// every artifact against the in-process serial run, and returns the wall
// time and the jobs' latencies (ms), split by whether the cache served them.
func drive(ctx context.Context, c *client, spec server.JobSpec, clients, jobs int) (wall time.Duration, cached, uncached []float64, err error) {
	serial, err := serialJob(ctx, spec)
	if err != nil {
		return 0, nil, nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var issued atomic.Int64
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := issued.Add(1); i <= int64(jobs); i = issued.Add(1) {
				t0 := time.Now()
				st, jerr := c.submitJob(ctx, spec)
				var art []byte
				if jerr == nil {
					st, art, jerr = c.finish(ctx, st)
				}
				lat := ms(time.Since(t0))
				if jerr == nil {
					jerr = identical(fmt.Sprintf("job %d/%d", i, jobs), art, serial)
				}
				mu.Lock()
				if st.Cached {
					cached = append(cached, lat)
				} else {
					uncached = append(uncached, lat)
				}
				if jerr != nil && err == nil {
					err = jerr
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start), cached, uncached, err
}

// runFleet is the coordinated-sweep bench: spec at seeds 1..points as one
// sweep through the fleet behind c, timed from submit to merged ledger.
func runFleet(ctx context.Context, c *client, workers int, spec server.JobSpec, points int) (loadEntry, error) {
	seeds := make([]uint64, max(points, 1))
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	sweep := coord.SweepSpec{Controllers: []string{spec.Controller}, Workloads: []string{spec.Workload}, Seeds: seeds, N: spec.N}
	sweep.Normalize()
	start := time.Now()
	st, ledger, err := c.runSweep(ctx, sweep, 5*time.Millisecond, nil)
	if err != nil {
		return loadEntry{}, err
	}
	wall := time.Since(start)
	if err := sameAsSerialSweep(ctx, sweep, ledger); err != nil {
		return loadEntry{}, err
	}

	e := newEntry("coord_fleet", workers, st.Points, spec, wall, nil)
	e.Retries = st.Retries
	e.AccessesPerSec = e.JobsPerSec * float64(spec.N)
	fmt.Printf("%d points x %d accesses over %d workers in %v (%.1f points/sec, %.0f accesses/sec)\n",
		st.Points, spec.N, workers, wall.Round(time.Millisecond), e.JobsPerSec, e.AccessesPerSec)
	return e, nil
}

// loadEntry is one appended record of service throughput in the
// BENCH_core.json ledger (heterogeneous entries; see regress.AppendLedger).
type loadEntry struct {
	Schema     int    `json:"schema"`
	GitSHA     string `json:"git_sha"`
	UnixMS     int64  `json:"unix_ms"`
	Mode       string `json:"mode"`
	Clients    int    `json:"clients"`
	Jobs       int    `json:"jobs"`
	Workload   string `json:"workload"`
	Controller string `json:"controller"`
	N          int    `json:"n"`
	Shards     int    `json:"shards,omitempty"`
	// GoMaxProcs and NumCPU record the parallelism available to the run.
	GoMaxProcs     int     `json:"gomaxprocs,omitempty"`
	NumCPU         int     `json:"num_cpu,omitempty"`
	P50MS          float64 `json:"p50_ms"`
	P95MS          float64 `json:"p95_ms"`
	P99MS          float64 `json:"p99_ms"`
	WallMS         float64 `json:"wall_ms"`
	JobsPerSec     float64 `json:"jobs_per_sec"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
	Verified       bool    `json:"verified_identical"`
	// Coordinator fields, set by -fleet ("coord_fleet" entries): Clients is
	// the worker count, Jobs the sweep's point count.
	Retries int `json:"retries,omitempty"`
	// Result-cache fields, set by -repeat ("rescache" entries).
	CachedJobs    int     `json:"cached_jobs,omitempty"`
	HitRate       float64 `json:"hit_rate,omitempty"`
	CachedP50MS   float64 `json:"cached_p50_ms,omitempty"`
	CachedP95MS   float64 `json:"cached_p95_ms,omitempty"`
	UncachedP50MS float64 `json:"uncached_p50_ms,omitempty"`
	UncachedP95MS float64 `json:"uncached_p95_ms,omitempty"`
}

// newEntry starts an identity-verified ledger entry of the given mode, with
// the percentiles of the latencies lat (milliseconds).
func newEntry(mode string, clients, jobs int, spec server.JobSpec, wall time.Duration, lat []float64) loadEntry {
	sort.Float64s(lat)
	return loadEntry{
		Schema:     report.SchemaVersion,
		GitSHA:     report.GitSHA(),
		UnixMS:     time.Now().UnixMilli(),
		Mode:       mode,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    clients,
		Jobs:       jobs,
		Workload:   spec.Workload,
		Controller: spec.Controller,
		N:          spec.N,
		P50MS:      percentile(lat, 0.50),
		P95MS:      percentile(lat, 0.95),
		P99MS:      percentile(lat, 0.99),
		WallMS:     ms(wall),
		JobsPerSec: float64(jobs) / wall.Seconds(),
		Verified:   true,
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// percentile returns the q-quantile of sorted xs (nearest-rank).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
