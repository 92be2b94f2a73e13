package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"cache8t/internal/coord"
	"cache8t/internal/report"
	"cache8t/internal/server"
)

// scenario is one end-to-end service gate: the processes it spawns, the
// job or sweep it submits, an optional fault, and what must hold after.
type scenario struct {
	name string
	// workers > 0 spawns that many workers plus a coordinator, else one
	// daemon, with args; dirFlag, when set, gets the run's fresh temp dir.
	workers int
	args    []string
	dirFlag string
	// job is submitted submits times (0 means once); all but the first must
	// be cache hits, terminal in their 202. When sweep is set it is submitted
	// instead, and job names the point checked against the golden.
	job     server.JobSpec
	submits int
	sweep   *coord.SweepSpec
	fault   fault
	// golden is the artifact job's result must match exactly; -update
	// regenerates it, in a row that owns it.
	golden     string
	ownsGolden bool
	// metrics are checkMetric predicates on the front process's /metrics.
	metrics []string
}

// fault is a row's optional failure-injection step.
type fault int

const (
	// crashDaemon kills the daemon with kill -9 once the job has simulated
	// 5000 accesses (failing if it finishes first), restarts it on the same
	// journal, and requires a live twin to be refused, the job to be back
	// under its id with recovered: true, and, once it has succeeded, no
	// checkpoint file left in <journal>/ckpt/ and nothing in the cache dir,
	// <journal>/cas, but format, entries/ and the daemon's lock.
	crashDaemon fault = iota + 1
	// killWorker kills worker 0 with kill -9 once 1 <= done <= points-4, so
	// round-robin must revisit it; the sweep must succeed with retries >= 1.
	killWorker
)

// goldenJob is the pinned WG+RB bwaves workload golden/serve.json records.
var goldenJob = server.JobSpec{Controller: "wgrb", Workload: "bwaves", N: 50_000, Seed: 1}

// scenarios is the table of service gates, one per Makefile smoke target.
var scenarios = []scenario{{
	name:   "serve",
	job:    goldenJob,
	golden: "golden/serve.json", ownsGolden: true,
	metrics: []string{`sramd_jobs_total{state="succeeded"} == 1`},
}, {
	name:    "cache",
	dirFlag: "-cache-dir",
	job:     goldenJob,
	submits: 2,
	golden:  "golden/serve.json",
	metrics: []string{"rescache_misses_total == 1", `rescache_hits_total{tier="memory"} == 1`,
		"rescache_bytes_served_total >= 1"},
}, {
	// A WG first level, whose premature write-backs exercise the bridge's
	// on-chip event path, over the spec-defaulted 256 KB RMW second level.
	name:   "hier",
	job:    server.JobSpec{Controller: "wg", Workload: "bwaves", N: 50_000, Seed: 1, Hierarchy: true},
	golden: "golden/hier-serve.json", ownsGolden: true,
	metrics: []string{`sramd_jobs_total{state="succeeded"} == 1`},
}, {
	// Per-batch checkpoints at batch 64, each an fsynced file write, stretch
	// the run enough to kill it mid-flight without sleeping or guessing.
	// Batch is an execution knob: the artifact does not change. The job's
	// spec is in its journal record, so the disk tier holds its artifact
	// alone.
	name:    "crash",
	args:    []string{"-checkpoint-every", "1", "-workers", "1"},
	dirFlag: "-journal-dir",
	job:     server.JobSpec{Controller: "wgrb", Workload: "bwaves", N: 50_000, Seed: 1, Batch: 64},
	fault:   crashDaemon,
	golden:  "golden/serve.json",
	metrics: []string{"sramd_recovered_jobs_total == 1", "sramd_checkpoints_restored_total == 1",
		"sramd_journal_bytes >= 1", "rescache_disk_entries == 1"},
}, {
	// The serve job embedded in a 3-controller x 4-seed matrix; -dispatch 1
	// serializes the points so the sweep provably spans the kill window.
	name:    "coord",
	workers: 3,
	args:    []string{"-dispatch", "1", "-point-timeout", "30s"},
	sweep: &coord.SweepSpec{Controllers: []string{"rmw", "wg", "wgrb"}, Workloads: []string{"bwaves"},
		Seeds: []uint64{1, 2, 3, 4}, N: 50_000},
	job:     goldenJob,
	fault:   killWorker,
	golden:  "golden/serve.json",
	metrics: []string{"coord_redispatches_total >= 1", `coord_sweeps_total{state="succeeded"} >= 1`},
}}

// runScenario runs one row end to end: spawn, submit, fault, then the
// shared assertions, ending with a clean SIGTERM of every survivor.
func runScenario(ctx context.Context, sc scenario, bin string, update bool) error {
	tmp, err := os.MkdirTemp("", "sramload-"+sc.name+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	args := sc.args
	if sc.dirFlag != "" {
		args = append(slices.Clip(args), sc.dirFlag, tmp)
	}
	p, err := spawnProcs(ctx, bin, sc.workers, args)
	if err != nil {
		return err
	}
	defer p.kill()

	job := sc.job
	job.Normalize()
	var art []byte
	if sc.sweep != nil {
		art, err = p.runSweepRow(ctx, sc, job)
	} else {
		art, err = p.runJobRow(ctx, sc, job)
	}
	if err != nil {
		return err
	}
	if sc.fault == crashDaemon {
		if ents, err := os.ReadDir(filepath.Join(tmp, "ckpt")); err != nil || len(ents) > 0 {
			return fmt.Errorf("after the recovered job succeeded, the checkpoint dir holds %d files (%v); want none", len(ents), err)
		}
		ents, err := os.ReadDir(filepath.Join(tmp, "cas"))
		if err != nil {
			return err
		}
		for _, e := range ents {
			if name := e.Name(); name != "entries" && name != "format" && name != "sramd.lock" {
				return fmt.Errorf("the cache dir holds %s; want only format, entries/ and sramd.lock", name)
			}
		}
	}
	if err := checkGolden(sc, art, update); err != nil {
		return err
	}
	body, err := p.front.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	for _, pred := range sc.metrics {
		if err := checkMetric(body, pred); err != nil {
			return err
		}
	}
	if err := p.stop(); err != nil {
		return err
	}
	fmt.Printf("scenario %s ok: serial-identical, %s, %d /metrics predicates hold, clean shutdown\n",
		sc.name, sc.golden, len(sc.metrics))
	return nil
}

// runJobRow submits the row's job, applying the crash fault in flight, and
// returns the last artifact, each one checked against the serial run.
func (p *procs) runJobRow(ctx context.Context, sc scenario, job server.JobSpec) ([]byte, error) {
	serial, err := serialJob(ctx, job)
	if err != nil {
		return nil, err
	}
	var art []byte
	for i := range max(sc.submits, 1) {
		wantCached := i > 0
		st, err := p.front.submitJob(ctx, job)
		if err != nil {
			return nil, err
		}
		if wantCached && !st.State.Terminal() {
			return nil, fmt.Errorf("submission %d was not served at submit: its 202 says %s", i+1, st.State)
		}
		if sc.fault == crashDaemon {
			if st, err = p.crash(ctx, st.ID); err != nil {
				return nil, err
			}
		}
		if st, art, err = p.front.finish(ctx, st); err != nil {
			return nil, err
		}
		if st.Cached != wantCached {
			return nil, fmt.Errorf("submission %d: cached = %v, want %v", i+1, st.Cached, wantCached)
		}
		if err := identical(fmt.Sprintf("submission %d vs the in-process serial run", i+1), art, serial); err != nil {
			return nil, err
		}
	}
	return art, nil
}

// crash is the crashDaemon fault; it returns the restarted daemon's status.
func (p *procs) crash(ctx context.Context, id string) (server.JobStatus, error) {
	_, err := poll(ctx, &p.front.client, "/v1/jobs/"+id, 2*time.Millisecond, func(st server.JobStatus) (bool, error) {
		if st.State.Terminal() {
			return false, fmt.Errorf("job %s finished (%s) before the crash could be injected", id, st.State)
		}
		return st.Accesses >= 5000, nil // tens of checkpoints at batch 64
	})
	if err != nil {
		return server.JobStatus{}, err
	}
	log.Printf("job %s past 5000 accesses: kill -9", id)
	p.front.kill() // no drain, no journal close, no lock release
	if err := p.spawnFront(ctx); err != nil {
		return server.JobStatus{}, fmt.Errorf("restart on the crashed journal (stale-lock takeover): %w", err)
	}
	twin := exec.CommandContext(ctx, p.bin, append([]string{"-listen", "127.0.0.1:0"}, p.args...)...)
	if out, err := twin.CombinedOutput(); err == nil || !strings.Contains(string(out), "locked by running sramd") {
		return server.JobStatus{}, fmt.Errorf("a twin daemon on the live journal was not refused with a lock error: %v: %s", err, out)
	}
	var st server.JobStatus
	if _, err := p.front.send(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &st); err != nil {
		return st, fmt.Errorf("job %s did not survive the crash: %w", id, err)
	}
	if !st.Recovered {
		return st, fmt.Errorf("job %s survived but is not marked recovered", id)
	}
	return st, nil
}

// runSweepRow submits the row's sweep, applying the killWorker fault, and
// returns job's point from the ledger, checked against the serial run.
func (p *procs) runSweepRow(ctx context.Context, sc scenario, job server.JobSpec) ([]byte, error) {
	spec := *sc.sweep
	spec.Normalize()
	killed := false
	st, ledger, err := p.front.runSweep(ctx, spec, time.Millisecond, func(st coord.SweepStatus) {
		if sc.fault == killWorker && !killed && st.Done >= 1 && st.Done <= st.Points-4 {
			log.Printf("sweep at %d/%d points: kill -9 worker %s", st.Done, st.Points, p.workers[0].base)
			p.workers[0].kill()
			killed = true
		}
	})
	if err != nil {
		return nil, err
	}
	if sc.fault == killWorker && (!killed || st.Retries < 1) {
		return nil, fmt.Errorf("sweep succeeded with worker killed mid-flight = %v and %d redispatches; want true and >= 1", killed, st.Retries)
	}
	if err := sameAsSerialSweep(ctx, spec, ledger); err != nil {
		return nil, err
	}
	led, err := coord.DecodeLedger(ledger)
	if err != nil {
		return nil, err
	}
	pts, err := spec.Decompose()
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		if pt.Spec.Controller == job.Controller && pt.Spec.Seed == job.Seed {
			return led.Artifacts[pt.Index], nil
		}
	}
	return nil, fmt.Errorf("the sweep has no %s/seed %d point", job.Controller, job.Seed)
}

// serialJob is the in-process serial reference run of a job spec.
func serialJob(ctx context.Context, spec server.JobSpec) ([]byte, error) {
	spec.Shards = 0
	return server.Execute(ctx, spec, spec.Workload, nil)
}

// sameAsSerialSweep checks a merged ledger against coord.ExecuteSerial,
// which also proves no artifact of an aborted dispatch was merged.
func sameAsSerialSweep(ctx context.Context, spec coord.SweepSpec, ledger []byte) error {
	serial, err := coord.ExecuteSerial(ctx, spec)
	if err != nil {
		return err
	}
	return identical("merged ledger vs the in-process serial run", ledger, serial)
}

// identical is the identity check every row shares: the service must never
// change the numbers.
func identical(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("identity broken: %s (%d vs %d bytes)", what, len(got), len(want))
	}
	log.Printf("identity verified: %s (%d bytes)", what, len(got))
	return nil
}

// checkGolden compares art to the row's golden in the zero band (scenario
// workloads are deterministic) or, with update, rewrites the golden.
func checkGolden(sc scenario, art []byte, update bool) error {
	if update {
		if err := os.WriteFile(sc.golden, art, 0o644); err != nil {
			return err
		}
		fmt.Printf("golden updated (%s)\n", sc.golden)
		return nil
	}
	golden, err := report.ReadFile(sc.golden)
	if err != nil {
		return fmt.Errorf("%w (run the scenario that owns it with -update to create it)", err)
	}
	got, err := report.Decode(art)
	if err != nil {
		return err
	}
	if diff := report.Compare(golden, got, report.Bands{}); !diff.OK() {
		diff.Table(fmt.Sprintf("scenario %s [DRIFT] vs %s", sc.name, sc.golden), false).Render(os.Stderr)
		return fmt.Errorf("artifact drifted from %s", sc.golden)
	}
	return nil
}

// checkMetric evaluates a predicate "<series> ==|>= <value>" on a /metrics
// body. The series, a name with any {labels}, must match a sample exactly,
// whose value is compared as a number; a missing series is an error.
func checkMetric(body []byte, pred string) error {
	f := strings.Fields(pred)
	if len(f) != 3 || (f[1] != "==" && f[1] != ">=") {
		return fmt.Errorf("bad /metrics predicate %q: want <series> ==|>= <value>", pred)
	}
	want, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return fmt.Errorf("bad /metrics predicate %q: %w", pred, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, f[0]+" ")
		if !ok {
			continue
		}
		got, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return fmt.Errorf("/metrics %s: unparseable value %q", f[0], rest)
		}
		if got == want || (f[1] == ">=" && got > want) {
			return nil
		}
		return fmt.Errorf("/metrics %s = %v, want %s %v", f[0], got, f[1], want)
	}
	return fmt.Errorf("/metrics has no %s sample", f[0])
}
