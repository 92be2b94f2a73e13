// Command sramload drives a running sramd daemon: a load generator that
// fans N concurrent clients out over the job API and reports latency
// percentiles and aggregate simulation throughput, plus a -smoke mode used
// by `make serve-smoke` and CI to gate the service end to end.
//
// Usage:
//
//	sramload -addr http://127.0.0.1:8344 -clients 8 -jobs 32
//	sramload -sramd ./sramd-binary -clients 4 -jobs 16   # spawn a daemon
//	sramload -smoke -sramd ./sramd-binary                # CI service gate
//	sramload -smoke -sramd ./sramd-binary -update        # regenerate golden
//	sramload -repeat 16 -sramd ./sramd-binary            # result-cache bench
//	sramload -cache-smoke -sramd ./sramd-binary -cache-dir /tmp/cas  # CI cache gate
//	sramload -hier-smoke -sramd ./sramd-binary           # CI two-level gate
//	sramload -crash-smoke -sramd ./sramd-binary          # CI crash-recovery gate
//	sramload -coord-smoke -sramd ./sramd-binary          # CI distributed-mode chaos gate
//	sramload -fleet 3 -jobs 12 -sramd ./sramd-binary     # coordinated-sweep bench
//	sramload -version
//
// Load mode submits -jobs identical spec jobs across -clients concurrent
// clients, waits on each via the SSE event stream, fetches every artifact,
// and reports p50/p95/p99 submit→result latency and aggregate accesses/sec.
// Before appending an entry to -out (BENCH_core.json), it verifies that one
// fetched artifact is byte-for-byte identical to an in-process serial run
// of the same spec — the service must never change the numbers. A spawned
// daemon runs with -no-cache (unless -cache-dir is given) so the load
// numbers measure simulation, not cache hits.
//
// Repeat mode (-repeat K) resubmits the same spec K times sequentially
// against a caching daemon and reports the hit rate plus cached-vs-uncached
// p50/p95 latency, appending a "rescache" entry to -out. Every artifact
// must be byte-identical — hit ≡ miss is the cache's core guarantee.
//
// Cache-smoke mode (-cache-smoke) is the CI gate for the result cache:
// submit the golden workload twice, require the first to compute and the
// second to arrive `cached: true` without entering the queue, require both
// byte-identical to a local serial run and matching golden/serve.json, and
// require /metrics to show exactly one miss and one memory-tier hit.
//
// Hier-smoke mode (-hier-smoke) is the CI gate for multi-level scenarios:
// the same end-to-end pass as -smoke but with a hierarchy job (WG L1 over
// the default 256 KB RMW L2), compared byte-for-byte against an in-process
// serial hierarchy run and exactly against golden/hier-serve.json.
//
// Crash-smoke mode (-crash-smoke) is the CI gate for durability: start a
// journaled daemon, submit the golden workload with per-batch
// checkpointing, kill -9 mid-job, restart on the same journal, and require
// the job to survive under its id, resume from a checkpoint, and finish
// with an artifact byte-identical to a local serial run and to
// golden/serve.json. It also checks the stale-lock takeover and the
// live-twin refusal.
//
// Coord-smoke mode (-coord-smoke) is the CI chaos gate for distributed mode:
// spawn three workers and a coordinator, submit a 12-point sweep embedding
// the golden workload, kill -9 one worker provably mid-sweep, and require the
// sweep to finish with at least one redispatch, a merged ledger byte-identical
// to the serial in-process run, the golden point matching golden/serve.json
// exactly, redispatches visible in /metrics, and a clean fleet shutdown.
//
// Fleet mode (-fleet N) is the coordinated-sweep bench: N workers plus a
// coordinator, one controllers×seeds sweep of -jobs points fanned across
// them, verified byte-identical to the serial run before a "coord_fleet"
// entry lands in -out.
//
// Smoke mode starts the daemon (when -sramd is given), submits one pinned
// golden workload, verifies the returned artifact byte-for-byte against a
// local serial run AND against golden/serve.json via report.Compare, checks
// /healthz and /metrics, then stops the daemon with SIGTERM and requires a
// clean exit.
//
// Exit status: 0 success, 1 any failure.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
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
		sramdBin    = flag.String("sramd", "", "path to an sramd binary to spawn on an ephemeral port for the run")
		clients     = flag.Int("clients", 4, "concurrent clients")
		jobs        = flag.Int("jobs", 16, "total jobs to submit")
		controller  = flag.String("controller", "wgrb", "controller kind for every job")
		workloadFlg = flag.String("workload", "bwaves", "bundled workload for every job")
		n           = flag.Int("n", 200_000, "accesses per job")
		seed        = flag.Uint64("seed", 1, "workload seed")
		shards      = flag.Int("shards", 0, "set-shard each job (set-local controllers only)")
		out         = flag.String("out", "BENCH_core.json", "throughput ledger to append the load entry to")
		smoke       = flag.Bool("smoke", false, "run the CI smoke: one golden job, byte-identity + golden compare, clean shutdown")
		cacheSmoke  = flag.Bool("cache-smoke", false, "run the result-cache CI smoke: golden job twice, second must be a cache hit")
		hierSmoke   = flag.Bool("hier-smoke", false, "run the two-level CI smoke: one hierarchy job, byte-identity vs an in-process run + golden compare (default golden: golden/hier-serve.json)")
		crashSmoke  = flag.Bool("crash-smoke", false, "run the crash-recovery CI smoke: kill -9 a daemon mid-job, restart, require the recovered artifact to match the golden")
		coordSmoke  = flag.Bool("coord-smoke", false, "run the distributed-mode CI chaos smoke: 1 coordinator + 3 workers, kill -9 one worker mid-sweep, require redispatch and a serial-identical merged ledger")
		fleetSize   = flag.Int("fleet", 0, "spawn this many workers plus a coordinator and drive a sweep through the fleet, appending a coord_fleet entry to -out")
		journalDir  = flag.String("journal-dir", "", "journal dir for -crash-smoke (default: a fresh temp dir)")
		repeat      = flag.Int("repeat", 0, "resubmit the same spec this many times and report cache hit-rate + latency split")
		cacheDir    = flag.String("cache-dir", "", "pass a persistent CAS dir to the spawned daemon (-sramd mode)")
		goldenPath  = flag.String("golden", "golden/serve.json", "golden artifact for -smoke and -cache-smoke")
		update      = flag.Bool("update", false, "with -smoke, regenerate the golden instead of comparing")
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

	// The crash smoke manages its own daemon generations (it kills one and
	// starts another on the same state), so it branches before the generic
	// spawn below.
	if *crashSmoke {
		if *sramdBin == "" {
			return fmt.Errorf("-crash-smoke requires -sramd (it must kill and restart the daemon)")
		}
		jdir := *journalDir
		if jdir == "" {
			tmp, err := os.MkdirTemp("", "sramd-crash-smoke-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			jdir = tmp
		}
		return runCrashSmoke(ctx, *sramdBin, jdir, *goldenPath)
	}

	// The coordinator modes likewise manage their own fleet of daemons.
	if *coordSmoke {
		if *sramdBin == "" {
			return fmt.Errorf("-coord-smoke requires -sramd (it spawns a fleet and kills a worker)")
		}
		return runCoordSmoke(ctx, *sramdBin, *goldenPath)
	}
	if *fleetSize > 0 {
		if *sramdBin == "" {
			return fmt.Errorf("-fleet requires -sramd (it spawns the fleet itself)")
		}
		entry, err := runFleet(ctx, *sramdBin, *fleetSize, *controller, *workloadFlg, *n, *jobs)
		if err != nil {
			return err
		}
		if err := regress.AppendLedger(*out, entry); err != nil {
			return err
		}
		fmt.Printf("appended coord_fleet entry to %s\n", *out)
		return nil
	}

	// Daemon cache posture per mode: plain load measures simulation
	// throughput, so a spawned daemon gets -no-cache unless the caller
	// explicitly pointed it at a CAS; the cache modes want caching on.
	var daemonArgs []string
	if *cacheDir != "" {
		daemonArgs = append(daemonArgs, "-cache-dir", *cacheDir)
	} else if !*smoke && !*cacheSmoke && !*hierSmoke && *repeat == 0 {
		daemonArgs = append(daemonArgs, "-no-cache")
	}

	base := strings.TrimRight(*addr, "/")
	var daemon *spawnedDaemon
	if *sramdBin != "" {
		var err error
		daemon, err = spawnDaemon(*sramdBin, daemonArgs...)
		if err != nil {
			return err
		}
		defer daemon.kill()
		base = daemon.base
	}
	if base == "" {
		return fmt.Errorf("need -addr or -sramd")
	}
	c := &client{base: base, hc: &http.Client{}}

	if *smoke || *cacheSmoke || *hierSmoke {
		smokeFn := func(ctx context.Context, c *client, goldenPath string, update bool) error {
			return runSmoke(ctx, c, smokeSpec(), "serve-smoke", goldenPath, update)
		}
		gold := *goldenPath
		if *cacheSmoke {
			smokeFn = func(ctx context.Context, c *client, goldenPath string, _ bool) error {
				return runCacheSmoke(ctx, c, goldenPath)
			}
		}
		if *hierSmoke {
			// The hierarchy smoke pins its own golden; only redirect the
			// default so an explicit -golden still wins.
			if !flagSet("golden") {
				gold = "golden/hier-serve.json"
			}
			smokeFn = func(ctx context.Context, c *client, goldenPath string, update bool) error {
				return runSmoke(ctx, c, hierSmokeSpec(), "hier-smoke", goldenPath, update)
			}
		}
		if err := smokeFn(ctx, c, gold, *update); err != nil {
			return err
		}
		if daemon != nil {
			if err := daemon.stopGracefully(); err != nil {
				return fmt.Errorf("graceful shutdown: %w", err)
			}
			log.Printf("daemon shut down cleanly")
		}
		return nil
	}

	spec := server.JobSpec{
		Controller: *controller,
		Workload:   *workloadFlg,
		N:          *n,
		Seed:       *seed,
		Shards:     *shards,
	}
	spec.Normalize()
	if err := spec.Validate(false); err != nil {
		return err
	}
	var entry loadEntry
	var err error
	if *repeat > 0 {
		entry, err = runRepeat(ctx, c, spec, *repeat)
	} else {
		entry, err = runLoad(ctx, c, spec, *clients, *jobs)
	}
	if err != nil {
		return err
	}
	if err := regress.AppendLedger(*out, entry); err != nil {
		return err
	}
	fmt.Printf("appended load entry to %s\n", *out)
	if daemon != nil {
		return daemon.stopGracefully()
	}
	return nil
}

// runLoad is the load-generator path: clients*jobs submissions, latency
// percentiles, aggregate throughput, and the identity check gating the
// ledger append.
func runLoad(ctx context.Context, c *client, spec server.JobSpec, clients, jobs int) (loadEntry, error) {
	if clients < 1 {
		clients = 1
	}
	if jobs < clients {
		jobs = clients
	}
	var (
		mu        sync.Mutex
		latencies []float64
		firstArt  []byte
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < jobs; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				t0 := time.Now()
				_, art, err := c.runJob(ctx, spec)
				lat := time.Since(t0).Seconds() * 1e3
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if art != nil && firstArt == nil {
					firstArt = art
				}
				latencies = append(latencies, lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return loadEntry{}, firstErr
	}

	// The service must never change the numbers: one fetched artifact is
	// re-derived by an in-process *serial* run of the same spec and must be
	// byte-for-byte identical before any throughput claim is recorded.
	serial := spec
	serial.Shards = 0
	local, err := server.Execute(ctx, serial, serial.Workload, nil)
	if err != nil {
		return loadEntry{}, err
	}
	if !bytes.Equal(firstArt, local) {
		return loadEntry{}, fmt.Errorf("artifact from daemon differs from local serial run (%d vs %d bytes)", len(firstArt), len(local))
	}
	log.Printf("identity verified: daemon artifact == local serial artifact (%d bytes)", len(local))

	sort.Float64s(latencies)
	e := loadEntry{
		Schema:     report.SchemaVersion,
		GitSHA:     report.GitSHA(),
		UnixMS:     time.Now().UnixMilli(),
		Mode:       "serve_load",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    clients,
		Jobs:       jobs,
		Workload:   spec.Workload,
		Controller: spec.Controller,
		N:          spec.N,
		Shards:     spec.Shards,
		P50MS:      percentile(latencies, 0.50),
		P95MS:      percentile(latencies, 0.95),
		P99MS:      percentile(latencies, 0.99),
		WallMS:     wall.Seconds() * 1e3,
		Verified:   true,
	}
	if secs := wall.Seconds(); secs > 0 {
		e.JobsPerSec = float64(jobs) / secs
		e.AccessesPerSec = float64(jobs) * float64(spec.N) / secs
	}
	fmt.Printf("%d jobs x %d accesses over %d clients in %v\n", jobs, spec.N, clients, wall.Round(time.Millisecond))
	fmt.Printf("latency p50 %.1f ms, p95 %.1f ms, p99 %.1f ms; %.0f accesses/sec aggregate\n",
		e.P50MS, e.P95MS, e.P99MS, e.AccessesPerSec)
	return e, nil
}

// runRepeat is the result-cache benchmark: the same spec submitted K times
// in sequence. The first submission computes; every later one must be a
// cache hit with byte-identical artifact bytes. The entry records the hit
// rate and the cached-vs-uncached latency split — the cache's value
// proposition in numbers.
func runRepeat(ctx context.Context, c *client, spec server.JobSpec, k int) (loadEntry, error) {
	if k < 2 {
		k = 2 // one miss plus at least one chance to hit
	}
	var cachedLat, uncachedLat, all []float64
	var firstArt []byte
	hits := 0
	start := time.Now()
	for i := 0; i < k; i++ {
		t0 := time.Now()
		st, art, err := c.runJob(ctx, spec)
		if err != nil {
			return loadEntry{}, fmt.Errorf("repeat %d/%d: %w", i+1, k, err)
		}
		lat := time.Since(t0).Seconds() * 1e3
		all = append(all, lat)
		if st.Cached {
			hits++
			cachedLat = append(cachedLat, lat)
		} else {
			uncachedLat = append(uncachedLat, lat)
		}
		if firstArt == nil {
			firstArt = art
		} else if !bytes.Equal(art, firstArt) {
			return loadEntry{}, fmt.Errorf("repeat %d/%d: cached artifact differs from the first run (%d vs %d bytes)", i+1, k, len(art), len(firstArt))
		}
	}
	wall := time.Since(start)
	if hits == 0 {
		return loadEntry{}, fmt.Errorf("no submission hit the cache in %d repeats — is the daemon running with -no-cache?", k)
	}

	serial := spec
	serial.Shards = 0
	local, err := server.Execute(ctx, serial, serial.Workload, nil)
	if err != nil {
		return loadEntry{}, err
	}
	if !bytes.Equal(firstArt, local) {
		return loadEntry{}, fmt.Errorf("artifact from daemon differs from local serial run (%d vs %d bytes)", len(firstArt), len(local))
	}
	log.Printf("identity verified: all %d artifacts == local serial artifact (%d bytes)", k, len(local))

	sort.Float64s(all)
	sort.Float64s(cachedLat)
	sort.Float64s(uncachedLat)
	e := loadEntry{
		Schema:        report.SchemaVersion,
		GitSHA:        report.GitSHA(),
		UnixMS:        time.Now().UnixMilli(),
		Mode:          "rescache",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Clients:       1,
		Jobs:          k,
		Workload:      spec.Workload,
		Controller:    spec.Controller,
		N:             spec.N,
		P50MS:         percentile(all, 0.50),
		P95MS:         percentile(all, 0.95),
		P99MS:         percentile(all, 0.99),
		WallMS:        wall.Seconds() * 1e3,
		Verified:      true,
		CachedJobs:    hits,
		HitRate:       float64(hits) / float64(k),
		CachedP50MS:   percentile(cachedLat, 0.50),
		CachedP95MS:   percentile(cachedLat, 0.95),
		UncachedP50MS: percentile(uncachedLat, 0.50),
		UncachedP95MS: percentile(uncachedLat, 0.95),
	}
	if secs := wall.Seconds(); secs > 0 {
		e.JobsPerSec = float64(k) / secs
	}
	fmt.Printf("%d repeats: %d cache hits (%.0f%% hit rate)\n", k, hits, 100*e.HitRate)
	fmt.Printf("uncached p50 %.1f ms p95 %.1f ms; cached p50 %.2f ms p95 %.2f ms\n",
		e.UncachedP50MS, e.UncachedP95MS, e.CachedP50MS, e.CachedP95MS)
	return e, nil
}

// smokeSpec is the pinned golden workload the CI smoke submits.
func smokeSpec() server.JobSpec {
	s := server.JobSpec{Controller: "wgrb", Workload: "bwaves", N: 50_000, Seed: 1}
	s.Normalize()
	return s
}

// hierSmokeSpec is the two-level smoke job: a WG first level (the scheme
// whose premature write-backs exercise the bridge's on-chip event path) over
// the spec-defaulted 256 KB RMW second level.
func hierSmokeSpec() server.JobSpec {
	s := server.JobSpec{Controller: "wg", Workload: "bwaves", N: 50_000, Seed: 1, Hierarchy: true}
	s.Normalize()
	return s
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runSmoke gates the service end to end: submit spec, fetch, byte-identity
// vs a local serial run, exact compare against the checked-in golden, and a
// health/metrics sanity pass. name labels the gate in its output
// ("serve-smoke", "hier-smoke").
func runSmoke(ctx context.Context, c *client, spec server.JobSpec, name, goldenPath string, update bool) error {
	if err := c.checkHealth(ctx); err != nil {
		return err
	}
	_, got, err := c.runJob(ctx, spec)
	if err != nil {
		return err
	}
	local, err := server.Execute(ctx, spec, spec.Workload, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, local) {
		return fmt.Errorf("artifact from daemon differs from local serial run (%d vs %d bytes)", len(got), len(local))
	}
	log.Printf("identity verified: daemon artifact == local serial artifact (%d bytes)", len(got))

	if update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			return err
		}
		fmt.Printf("golden updated (%s)\n", goldenPath)
		return nil
	}
	golden, err := report.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("%w (run with -update to create it)", err)
	}
	gotArt, err := report.Decode(got)
	if err != nil {
		return err
	}
	// The smoke workload is fully deterministic, so everything compares
	// exactly — the zero band.
	diff := report.Compare(golden, gotArt, report.Bands{})
	if !diff.OK() {
		t := diff.Table(fmt.Sprintf("%s [DRIFT] vs %s", name, goldenPath), false)
		t.Render(os.Stderr)
		return fmt.Errorf("artifact drifted from %s", goldenPath)
	}
	fmt.Printf("%s ok — artifact matches %s (%d metrics)\n", name, goldenPath, len(gotArt.Metrics))

	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), "sramd_jobs_total") {
		return fmt.Errorf("/metrics is missing sramd_jobs_total")
	}
	return nil
}

// runCacheSmoke gates the result cache end to end: the golden workload
// submitted twice against a caching daemon. The first run must compute and
// match both a local serial run and the checked-in golden; the second must
// come back `cached: true`, already terminal in its 202 (it never entered
// the queue), byte-identical, and visible in the rescache_* metrics.
func runCacheSmoke(ctx context.Context, c *client, goldenPath string) error {
	if err := c.checkHealth(ctx); err != nil {
		return err
	}
	spec := smokeSpec()

	first, miss, err := c.runJob(ctx, spec)
	if err != nil {
		return err
	}
	if first.Cached {
		return fmt.Errorf("first submission was already a cache hit; the cache dir is not fresh")
	}
	local, err := server.Execute(ctx, spec, spec.Workload, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(miss, local) {
		return fmt.Errorf("uncached artifact differs from local serial run (%d vs %d bytes)", len(miss), len(local))
	}

	second, hit, err := c.runJob(ctx, spec)
	if err != nil {
		return err
	}
	if !second.Cached {
		return fmt.Errorf("repeat submission was not served from the cache")
	}
	if !bytes.Equal(hit, miss) {
		return fmt.Errorf("cache-hit artifact differs from the uncached run (%d vs %d bytes)", len(hit), len(miss))
	}
	log.Printf("identity verified: hit == miss == local serial artifact (%d bytes)", len(hit))

	golden, err := report.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("%w (run `sramload -smoke -update` to create it)", err)
	}
	hitArt, err := report.Decode(hit)
	if err != nil {
		return err
	}
	if diff := report.Compare(golden, hitArt, report.Bands{}); !diff.OK() {
		t := diff.Table(fmt.Sprintf("cache-smoke [DRIFT] vs %s", goldenPath), false)
		t.Render(os.Stderr)
		return fmt.Errorf("cached artifact drifted from %s", goldenPath)
	}

	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"rescache_misses_total 1",
		`rescache_hits_total{tier="memory"} 1`,
		"rescache_bytes_served_total",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("/metrics missing %q after one miss and one hit", want)
		}
	}
	fmt.Printf("cache-smoke ok — hit ≡ miss ≡ serial, matches %s, metrics consistent\n", goldenPath)
	return nil
}

// runCrashSmoke gates crash recovery end to end — the durability analogue of
// runSmoke:
//
//  1. start a daemon with a journal, submit the golden workload with a tiny
//     batch and per-batch checkpointing (execution knobs: the config hash,
//     and therefore the artifact, are unchanged),
//  2. kill -9 the daemon once the job is provably mid-run,
//  3. verify a second daemon on the same journal dir refuses to start while
//     the first still runs would be ideal — what we can check here is the
//     converse: a daemon started while the *restarted* daemon holds the lock
//     fails fast with a clear error,
//  4. restart on the same state: the job must still exist under its id,
//     resume from a checkpoint, and finish with an artifact byte-identical
//     to a local serial run and to golden/serve.json.
func runCrashSmoke(ctx context.Context, bin, jdir, goldenPath string) error {
	d1, err := spawnDaemon(bin, "-journal-dir", jdir, "-checkpoint-every", "1", "-workers", "1")
	if err != nil {
		return err
	}
	defer d1.kill()
	c1 := &client{base: d1.base, hc: &http.Client{}}
	if err := c1.checkHealth(ctx); err != nil {
		return err
	}

	// The golden spec with a small batch: per-batch checkpoints fsync into
	// the CAS, which stretches the run enough to kill it mid-flight without
	// sleeping or guessing.
	spec := smokeSpec()
	spec.Batch = 64
	st, err := c1.submit(ctx, spec)
	if err != nil {
		return err
	}
	log.Printf("submitted %s; waiting for it to be provably mid-run", st.ID)

	// Poll until enough accesses have been simulated that tens of
	// checkpoints exist, then kill -9.
	const minAccesses = 5000
	for st.Accesses < minAccesses {
		if st.State.Terminal() {
			return fmt.Errorf("job %s finished (%s) before the crash could be injected; checkpointing is not throttling the run", st.ID, st.State)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		body, err := c1.get(ctx, "/v1/jobs/"+st.ID)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
	}
	log.Printf("job %s at %d accesses — kill -9", st.ID, st.Accesses)
	d1.kill() // SIGKILL + reap: no drain, no journal close, no lock release

	d2, err := spawnDaemon(bin, "-journal-dir", jdir, "-checkpoint-every", "1", "-workers", "1")
	if err != nil {
		return fmt.Errorf("restart on the crashed journal (stale-lock takeover): %w", err)
	}
	defer d2.kill()
	c2 := &client{base: d2.base, hc: &http.Client{}}
	if err := c2.checkHealth(ctx); err != nil {
		return err
	}

	// While daemon 2 is alive, a third daemon on the same journal dir must
	// fail fast with a clear lock error — the live-twin guard.
	if out, err := exec.Command(bin, "-listen", "127.0.0.1:0", "-journal-dir", jdir).CombinedOutput(); err == nil {
		return fmt.Errorf("a second live daemon started on the same journal dir")
	} else if !strings.Contains(string(out), "locked by running sramd") {
		return fmt.Errorf("twin-daemon start did not explain the lock conflict: %v: %s", err, out)
	}
	log.Printf("live-twin daemon refused with a clear lock error")

	// The job survived under its original id and runs to completion.
	body, err := c2.get(ctx, "/v1/jobs/"+st.ID)
	if err != nil {
		return fmt.Errorf("job %s did not survive the crash: %w", st.ID, err)
	}
	var rec server.JobStatus
	if err := json.Unmarshal(body, &rec); err != nil {
		return err
	}
	if !rec.Recovered {
		return fmt.Errorf("job %s survived but is not marked recovered: %s", st.ID, body)
	}
	final, err := c2.waitTerminal(ctx, st.ID)
	if err != nil {
		return err
	}
	if final.State != server.StateSucceeded {
		return fmt.Errorf("recovered job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	got, err := c2.get(ctx, "/v1/jobs/"+st.ID+"/result")
	if err != nil {
		return err
	}

	// Identity through the crash: the recovered artifact equals a local
	// serial run of the same spec and the checked-in golden, exactly.
	serial := smokeSpec()
	local, err := server.Execute(ctx, serial, serial.Workload, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, local) {
		return fmt.Errorf("recovered artifact differs from local serial run (%d vs %d bytes)", len(got), len(local))
	}
	golden, err := report.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("%w (run `sramload -smoke -update` to create it)", err)
	}
	gotArt, err := report.Decode(got)
	if err != nil {
		return err
	}
	if diff := report.Compare(golden, gotArt, report.Bands{}); !diff.OK() {
		t := diff.Table(fmt.Sprintf("crash-smoke [DRIFT] vs %s", goldenPath), false)
		t.Render(os.Stderr)
		return fmt.Errorf("recovered artifact drifted from %s", goldenPath)
	}
	log.Printf("identity verified: recovered artifact == local serial == %s (%d bytes)", goldenPath, len(got))

	// Recovery must be visible in the metrics: the job was replayed and
	// resumed from a checkpoint rather than restarted from access zero.
	metrics, err := c2.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"sramd_recovered_jobs_total 1",
		"sramd_checkpoints_restored_total 1",
		"sramd_journal_bytes",
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("/metrics missing %q after recovery", want)
		}
	}

	if err := d2.stopGracefully(); err != nil {
		return fmt.Errorf("graceful shutdown of the recovered daemon: %w", err)
	}
	fmt.Printf("crash-smoke ok — job survived kill -9, resumed from checkpoint, artifact matches %s\n", goldenPath)
	return nil
}

// fleet is a coordinator daemon plus the workers it dispatches to, all
// spawned on ephemeral ports; cl talks to the coordinator.
type fleet struct {
	workers []*spawnedDaemon
	coordd  *spawnedDaemon
	cl      *client
}

// spawnFleet starts n workers, then a coordinator pre-registered with all of
// them via -peers (plus any extra coordinator flags), and waits for the
// coordinator to answer /healthz.
func spawnFleet(ctx context.Context, bin string, n int, coordArgs ...string) (*fleet, error) {
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			f.kill()
		}
	}()
	peers := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w, err := spawnDaemon(bin, "-workers", "1")
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
		peers = append(peers, w.base)
	}
	args := append([]string{"-coordinator", "-peers", strings.Join(peers, ",")}, coordArgs...)
	cd, err := spawnDaemon(bin, args...)
	if err != nil {
		return nil, err
	}
	f.coordd = cd
	f.cl = &client{base: cd.base, hc: &http.Client{}}
	if err := f.cl.checkHealth(ctx); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// kill is the deferred safety net: SIGKILL everything still running.
func (f *fleet) kill() {
	if f.coordd != nil {
		f.coordd.kill()
	}
	for _, w := range f.workers {
		w.kill()
	}
}

// coordSweepSpec is the pinned sweep the coord smoke submits: the golden
// workload point (wgrb/bwaves/seed 1/N 50000 — exactly smokeSpec) embedded
// in a 3-controller × 4-seed matrix, 12 points total.
func coordSweepSpec() coord.SweepSpec {
	s := coord.SweepSpec{
		Controllers: []string{"rmw", "wg", "wgrb"},
		Workloads:   []string{"bwaves"},
		Seeds:       []uint64{1, 2, 3, 4},
		N:           50_000,
	}
	s.Normalize()
	return s
}

// runCoordSmoke gates distributed mode end to end — the chaos analogue of
// runSmoke:
//
//  1. spawn 3 workers and a coordinator registered with all of them,
//  2. submit the 12-point golden sweep; -dispatch 1 serializes the points so
//     the sweep provably spans a kill window without sleeping or guessing,
//  3. once at least one point is merged but at least four remain, kill -9
//     one worker: with 3 workers round-robin, the dead worker's turn must
//     come up again, so the redispatch path has to fire for the sweep to
//     finish at all,
//  4. require the sweep to succeed with retries >= 1, the merged ledger to
//     be byte-identical to coord.ExecuteSerial of the same spec, the golden
//     point inside it to match golden/serve.json exactly, the redispatch to
//     show in /metrics, and the surviving fleet to shut down cleanly.
func runCoordSmoke(ctx context.Context, bin, goldenPath string) error {
	f, err := spawnFleet(ctx, bin, 3, "-dispatch", "1", "-point-timeout", "30s")
	if err != nil {
		return err
	}
	defer f.kill()

	spec := coordSweepSpec()
	st, err := f.cl.submitSweep(ctx, spec)
	if err != nil {
		return err
	}
	points := st.Points
	log.Printf("sweep %s accepted: %d points over %d workers", st.ID, points, len(f.workers))

	killed := false
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if st, err = f.cl.sweepStatus(ctx, st.ID); err != nil {
			return err
		}
		if !killed && st.Done >= 1 && st.Done <= points-4 {
			log.Printf("sweep at %d/%d points — kill -9 worker at %s", st.Done, points, f.workers[0].base)
			f.workers[0].kill()
			killed = true
		}
	}
	if !killed {
		return fmt.Errorf("sweep finished (%s, %d/%d) before a worker could be killed mid-flight", st.State, st.Done, points)
	}
	if st.State != server.StateSucceeded {
		return fmt.Errorf("sweep %s ended %s after the worker kill: %s", st.ID, st.State, st.Error)
	}
	if st.Retries < 1 {
		return fmt.Errorf("sweep survived the kill without a single redispatch — the chaos injection missed")
	}
	log.Printf("sweep succeeded with %d redispatch(es) after the kill", st.Retries)

	// Identity through the chaos: the merged ledger equals a serial
	// in-process run of the same sweep, byte for byte — which also proves no
	// artifact from the killed worker's aborted dispatch was merged.
	merged, err := f.cl.get(ctx, "/v1/sweeps/"+st.ID+"/result")
	if err != nil {
		return err
	}
	serial, err := coord.ExecuteSerial(ctx, spec)
	if err != nil {
		return err
	}
	if !bytes.Equal(merged, serial) {
		return fmt.Errorf("merged ledger differs from the serial in-process run (%d vs %d bytes)", len(merged), len(serial))
	}
	log.Printf("identity verified: merged ledger == serial in-process ledger (%d bytes)", len(merged))

	// The golden point inside the matrix must still match the checked-in
	// golden artifact exactly — the zero band.
	pts, err := spec.Decompose()
	if err != nil {
		return err
	}
	goldenIdx := -1
	for _, p := range pts {
		if p.Spec.Controller == "wgrb" && p.Spec.Seed == 1 {
			goldenIdx = p.Index
		}
	}
	if goldenIdx < 0 {
		return fmt.Errorf("golden point wgrb/seed 1 not found in the decomposed sweep")
	}
	led, err := coord.DecodeLedger(merged)
	if err != nil {
		return err
	}
	art, err := report.Decode([]byte(led.Artifacts[goldenIdx]))
	if err != nil {
		return err
	}
	golden, err := report.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("%w (run `sramload -smoke -update` to create it)", err)
	}
	if diff := report.Compare(golden, art, report.Bands{}); !diff.OK() {
		t := diff.Table(fmt.Sprintf("coord-smoke [DRIFT] vs %s", goldenPath), false)
		t.Render(os.Stderr)
		return fmt.Errorf("golden point in the merged ledger drifted from %s", goldenPath)
	}

	// The redispatch must be visible in the coordinator's metrics.
	metrics, err := f.cl.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	if err := metricAtLeast(metrics, "coord_redispatches_total", 1); err != nil {
		return err
	}
	if err := metricAtLeast(metrics, `coord_sweeps_total{state="succeeded"}`, 1); err != nil {
		return err
	}

	// The coordinator and the two surviving workers drain cleanly.
	if err := f.coordd.stopGracefully(); err != nil {
		return fmt.Errorf("coordinator graceful shutdown: %w", err)
	}
	for _, w := range f.workers[1:] {
		if err := w.stopGracefully(); err != nil {
			return fmt.Errorf("worker graceful shutdown: %w", err)
		}
	}
	fmt.Printf("coord-smoke ok — worker killed mid-sweep, %d redispatch(es), ledger serial-identical, golden point matches %s\n",
		st.Retries, goldenPath)
	return nil
}

// runFleet is the coordinated-sweep bench driver: n workers plus a
// coordinator, one controllers×seeds sweep of pts points fanned across them,
// verified byte-identical to the serial in-process run before the
// "coord_fleet" entry is recorded.
func runFleet(ctx context.Context, bin string, n int, controller, workload string, accesses, pts int) (loadEntry, error) {
	if pts < 1 {
		pts = 1
	}
	// Scale dispatch parallelism with the fleet so the bench actually fans
	// out instead of trickling through the default window.
	f, err := spawnFleet(ctx, bin, n, "-dispatch", strconv.Itoa(2*n))
	if err != nil {
		return loadEntry{}, err
	}
	defer f.kill()

	seeds := make([]uint64, pts)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	spec := coord.SweepSpec{
		Controllers: []string{controller},
		Workloads:   []string{workload},
		Seeds:       seeds,
		N:           accesses,
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return loadEntry{}, err
	}

	start := time.Now()
	st, err := f.cl.submitSweep(ctx, spec)
	if err != nil {
		return loadEntry{}, err
	}
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return loadEntry{}, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if st, err = f.cl.sweepStatus(ctx, st.ID); err != nil {
			return loadEntry{}, err
		}
	}
	wall := time.Since(start)
	if st.State != server.StateSucceeded {
		return loadEntry{}, fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
	}

	merged, err := f.cl.get(ctx, "/v1/sweeps/"+st.ID+"/result")
	if err != nil {
		return loadEntry{}, err
	}
	serial, err := coord.ExecuteSerial(ctx, spec)
	if err != nil {
		return loadEntry{}, err
	}
	if !bytes.Equal(merged, serial) {
		return loadEntry{}, fmt.Errorf("merged ledger differs from the serial in-process run (%d vs %d bytes)", len(merged), len(serial))
	}
	log.Printf("identity verified: merged ledger == serial in-process ledger (%d bytes)", len(merged))

	if err := f.coordd.stopGracefully(); err != nil {
		return loadEntry{}, fmt.Errorf("coordinator graceful shutdown: %w", err)
	}
	for _, w := range f.workers {
		if err := w.stopGracefully(); err != nil {
			return loadEntry{}, fmt.Errorf("worker graceful shutdown: %w", err)
		}
	}

	e := loadEntry{
		Schema:     report.SchemaVersion,
		GitSHA:     report.GitSHA(),
		UnixMS:     time.Now().UnixMilli(),
		Mode:       "coord_fleet",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    n,
		Jobs:       st.Points,
		Workload:   workload,
		Controller: controller,
		N:          accesses,
		WallMS:     wall.Seconds() * 1e3,
		Verified:   true,
		Retries:    st.Retries,
	}
	if secs := wall.Seconds(); secs > 0 {
		e.JobsPerSec = float64(st.Points) / secs
		e.AccessesPerSec = float64(st.Points) * float64(accesses) / secs
	}
	fmt.Printf("%d points x %d accesses over %d workers in %v (%.1f points/sec, %.0f accesses/sec)\n",
		st.Points, accesses, n, wall.Round(time.Millisecond), e.JobsPerSec, e.AccessesPerSec)
	return e, nil
}

// metricAtLeast asserts metrics contains a `name value` line with
// value >= minVal.
func metricAtLeast(metrics []byte, name string, minVal float64) error {
	for _, line := range strings.Split(string(metrics), "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return fmt.Errorf("/metrics %s: unparseable value %q", name, rest)
		}
		if v < minVal {
			return fmt.Errorf("/metrics %s = %v, want >= %v", name, v, minVal)
		}
		return nil
	}
	return fmt.Errorf("/metrics missing %s", name)
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
	// GoMaxProcs and NumCPU record the parallelism available to the run;
	// entries appended before these fields existed decode with both at 0.
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

// percentile returns the q-quantile of sorted xs (nearest-rank).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// client is a minimal sramd API client.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// checkHealth verifies /healthz answers and logs the daemon's version.
func (c *client) checkHealth(ctx context.Context) error {
	var lastErr error
	for i := 0; i < 50; i++ {
		body, err := c.get(ctx, "/healthz")
		if err == nil {
			log.Printf("daemon healthy: %s", strings.TrimSpace(string(body)))
			return nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("daemon never became healthy: %w", lastErr)
}

// submit POSTs spec and returns the 202 status without waiting for the job
// to finish — the crash smoke needs the job id while the job is mid-run.
func (c *client) submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	specBytes, err := spec.Canonical()
	if err != nil {
		return server.JobStatus{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(specBytes))
	if err != nil {
		return server.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return server.JobStatus{}, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// runJob submits spec, waits for the terminal state via the SSE event
// stream, and fetches the artifact, returning the terminal status (whose
// Cached field says whether the result cache served it) alongside the
// bytes. A cache hit is already terminal in the 202 response and skips the
// SSE wait. A full queue (429) backs off and retries — that is the load
// generator meeting backpressure, not an error.
func (c *client) runJob(ctx context.Context, spec server.JobSpec) (server.JobStatus, []byte, error) {
	specBytes, err := spec.Canonical()
	if err != nil {
		return server.JobStatus{}, nil, err
	}
	var st server.JobStatus
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(specBytes))
		if err != nil {
			return server.JobStatus{}, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return server.JobStatus{}, nil, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			select {
			case <-ctx.Done():
				return server.JobStatus{}, nil, ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return server.JobStatus{}, nil, fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return server.JobStatus{}, nil, err
		}
		break
	}

	if !st.State.Terminal() {
		if st, err = c.waitTerminal(ctx, st.ID); err != nil {
			return server.JobStatus{}, nil, err
		}
	}
	if st.State != server.StateSucceeded {
		return st, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	art, err := c.get(ctx, "/v1/jobs/"+st.ID+"/result")
	return st, art, err
}

// submitSweep POSTs a sweep spec to a coordinator and returns the 202
// status without waiting for the sweep to finish.
func (c *client) submitSweep(ctx context.Context, spec coord.SweepSpec) (coord.SweepStatus, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return coord.SweepStatus{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(canon))
	if err != nil {
		return coord.SweepStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return coord.SweepStatus{}, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return coord.SweepStatus{}, fmt.Errorf("submit sweep: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var st coord.SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return coord.SweepStatus{}, err
	}
	return st, nil
}

// sweepStatus fetches a sweep's current status from a coordinator.
func (c *client) sweepStatus(ctx context.Context, id string) (coord.SweepStatus, error) {
	body, err := c.get(ctx, "/v1/sweeps/"+id)
	if err != nil {
		return coord.SweepStatus{}, err
	}
	var st coord.SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return coord.SweepStatus{}, err
	}
	return st, nil
}

// waitTerminal follows the job's SSE stream until a terminal status event.
// Frames are told apart by event name: a recovered job's stream opens with
// an `event: recovered` frame, which is not part of the status stream.
func (c *client) waitTerminal(ctx context.Context, id string) (server.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Include the body: the status line alone ("404 Not Found") says
		// nothing about *why* — the API explains itself in the JSON error.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return server.JobStatus{}, fmt.Errorf("events %s: %s: %s", id, resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var last server.JobStatus
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = "" // a blank line ends the frame
			continue
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			continue
		case event != "status" || !strings.HasPrefix(line, "data: "):
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			return server.JobStatus{}, err
		}
		if last.State.Terminal() {
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return server.JobStatus{}, err
	}
	return last, fmt.Errorf("event stream for %s ended before a terminal state", id)
}

// spawnedDaemon is an sramd child process started for this run.
type spawnedDaemon struct {
	cmd  *exec.Cmd
	base string
}

// spawnDaemon starts bin on an ephemeral port (plus any extra flags, e.g.
// cache posture) and scrapes the resolved address from its single stdout
// line.
func spawnDaemon(bin string, extra ...string) (*spawnedDaemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, extra...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	const prefix = "sramd listening on "
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			base := strings.TrimSpace(strings.TrimPrefix(line, prefix))
			// Keep draining stdout so the child never blocks on the pipe.
			go io.Copy(io.Discard, stdout)
			log.Printf("spawned %s at %s (pid %d)", bin, base, cmd.Process.Pid)
			return &spawnedDaemon{cmd: cmd, base: base}, nil
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, fmt.Errorf("%s exited before printing its listen address", bin)
}

// stopGracefully sends SIGTERM and requires a clean (exit 0) shutdown.
func (d *spawnedDaemon) stopGracefully() error {
	if d.cmd.Process == nil {
		return nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		d.cmd = &exec.Cmd{} // disarm kill()
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		return fmt.Errorf("daemon did not exit within 30s of SIGTERM")
	}
}

// kill is the deferred safety net for error paths; stopGracefully disarms it.
func (d *spawnedDaemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}
