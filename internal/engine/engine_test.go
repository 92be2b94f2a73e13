package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/engine"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// runKind runs kind over accs on a cache of shape cfg.
func runKind(ctx context.Context, kind core.Kind, cfg cache.Config, accs []trace.Access) (core.Result, error) {
	res, err := core.RunSchemes(ctx, []core.Scheme{{Kind: kind}}, cfg, func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
	if err != nil {
		return core.Result{}, err
	}
	return res[0], nil
}

// simJobs builds the real workload the determinism test replays: every
// controller kind over two cache shapes on one benchmark stream.
func simJobs(t *testing.T, n int) []engine.Job[core.Result] {
	t.Helper()
	prof, err := workload.ProfileByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(prof, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []engine.Job[core.Result]
	for _, shape := range []cache.Config{
		cache.DefaultConfig(),
		{SizeBytes: 8 * 1024, Ways: 2, BlockBytes: 32, Policy: cache.FIFO},
	} {
		for _, k := range core.Kinds() {
			jobs = append(jobs, engine.Job[core.Result]{
				Label: k.String(),
				Fn: func(ctx context.Context) (core.Result, error) {
					return runKind(ctx, k, shape, accs)
				},
			})
		}
	}
	return jobs
}

// TestRunDeterminism is the package's headline contract: a parallel Map
// must be byte-identical to a one-worker Map — same results in the same
// order, and therefore identical downstream stats aggregates.
func TestRunDeterminism(t *testing.T) {
	serial, err := engine.Map(context.Background(), engine.Config{Workers: 1}, simJobs(t, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate a table would print must match exactly too.
	agg := func(rs []core.Result) []float64 {
		var reds []float64
		for _, r := range rs[1:] {
			reds = append(reds, stats.Reduction(r.ArrayAccesses(), rs[0].ArrayAccesses()))
		}
		return reds
	}
	for _, workers := range []int{2, 8} {
		parallel, err := engine.Map(context.Background(), engine.Config{Workers: workers}, simJobs(t, 20_000))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d results differ from workers=1", workers)
		}
		if !reflect.DeepEqual(agg(serial), agg(parallel)) {
			t.Fatalf("workers=%d stats aggregates differ from workers=1", workers)
		}
	}
}

// TestRunAllMatchesEngine pins the fan-out contract: every kind run at once
// (core.RunSchemes, one walk on one goroutine) and the same kinds mapped
// across 8 workers agree result for result, in kind order.
func TestRunAllMatchesEngine(t *testing.T) {
	prof, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(prof, 3, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.DefaultConfig()
	serial, err := core.RunSchemes(context.Background(), core.Schemes(core.Options{}, core.Kinds()...), cfg,
		func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]engine.Job[core.Result], len(core.Kinds()))
	for i, k := range core.Kinds() {
		jobs[i] = engine.Job[core.Result]{
			Label: k.String(),
			Fn: func(ctx context.Context) (core.Result, error) {
				return runKind(ctx, k, cfg, accs)
			},
		}
	}
	parallel, err := engine.Map(context.Background(), engine.Config{Workers: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("engine.Map(workers=8) differs from RunSchemes")
	}
	for i, k := range core.Kinds() {
		if parallel[i].Controller != k {
			t.Fatalf("kind order broken: got %v at %d, want %v", parallel[i].Controller, i, k)
		}
	}
}

// TestRunCancellation cancels mid-batch: Map returns the context's error
// promptly, and the jobs after the cancel never start.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const jobs = 32
	var started atomic.Int32
	batch := make([]engine.Job[int], jobs)
	for i := range batch {
		batch[i] = engine.Job[int]{
			Label: fmt.Sprintf("job%d", i),
			Fn: func(jctx context.Context) (int, error) {
				if started.Add(1) == 4 {
					cancel()
				}
				select {
				case <-jctx.Done():
					return 0, jctx.Err()
				case <-time.After(5 * time.Millisecond):
					return i, nil
				}
			},
		}
	}
	start := time.Now()
	vals, err := engine.Map(ctx, engine.Config{Workers: 4}, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if vals != nil {
		t.Fatalf("cancelled Map returned values %v", vals)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", wall)
	}
	if n := started.Load(); n >= jobs {
		t.Fatalf("all %d jobs started despite the cancel", n)
	}
}

// TestPanicRecovery: one crashing job becomes a structured JobError with a
// stack and the job's label; both healthy jobs still run and the process
// survives, at one worker and at three.
func TestPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var healthy atomic.Int32
		ok := func(context.Context) (string, error) {
			healthy.Add(1)
			return "ok", nil
		}
		batch := []engine.Job[string]{
			{Label: "ok-before", Fn: ok},
			{Label: "boom", Fn: func(context.Context) (string, error) { panic("simulated controller crash") }},
			{Label: "ok-after", Fn: ok},
		}
		_, err := engine.Map(context.Background(), engine.Config{Workers: workers}, batch)
		if n := healthy.Load(); n != 2 {
			t.Fatalf("workers=%d: %d healthy jobs ran, want 2", workers, n)
		}
		var je *engine.JobError
		if !errors.As(err, &je) {
			t.Fatalf("workers=%d: panic produced %T (%v), want *JobError", workers, err, err)
		}
		if !je.Panicked || len(je.Stack) == 0 || je.Label != "boom" {
			t.Fatalf("workers=%d: JobError missing panic details: %+v", workers, je)
		}
		if msg := je.Error(); !strings.Contains(msg, "simulated controller crash") || !strings.HasPrefix(msg, "engine: job boom panicked: ") {
			t.Fatalf("workers=%d: error text %q", workers, msg)
		}
	}
}

// TestJobTimeout: a job exceeding Config.JobTimeout fails with a deadline
// error naming it, without disturbing its sibling.
func TestJobTimeout(t *testing.T) {
	var fastRan atomic.Bool
	batch := []engine.Job[bool]{
		{Label: "fast", Fn: func(context.Context) (bool, error) {
			fastRan.Store(true)
			return true, nil
		}},
		{Label: "slow", Fn: func(jctx context.Context) (bool, error) {
			<-jctx.Done()
			return false, jctx.Err()
		}},
	}
	_, err := engine.Map(context.Background(), engine.Config{Workers: 2, JobTimeout: 20 * time.Millisecond}, batch)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	var je *engine.JobError
	if !errors.As(err, &je) || je.Label != "slow" {
		t.Fatalf("err = %v, want JobError for %q", err, "slow")
	}
	if !fastRan.Load() {
		t.Fatal("the fast job never ran")
	}
}

// TestMapError: Map returns the first failure in submission order, not in
// completion order, wrapped as a JobError naming the job.
func TestMapError(t *testing.T) {
	batch := []engine.Job[int]{
		{Label: "fine", Fn: func(context.Context) (int, error) { return 1, nil }},
		{Label: "broken-first", Fn: func(context.Context) (int, error) {
			time.Sleep(20 * time.Millisecond)
			return 0, errors.New("nope")
		}},
		{Label: "broken-later", Fn: func(context.Context) (int, error) { return 0, errors.New("also nope") }},
	}
	_, err := engine.Map(context.Background(), engine.Config{Workers: 3}, batch)
	var je *engine.JobError
	if !errors.As(err, &je) || je.Label != "broken-first" || je.Panicked {
		t.Fatalf("Map error = %v, want JobError for %q", err, "broken-first")
	}
	if got, want := err.Error(), "engine: job broken-first: nope"; got != want {
		t.Fatalf("error text %q, want %q", got, want)
	}
}

// peakInFlight maps n jobs at cfg and returns the most that ran at once.
// Each job waits, up to a bound, until width jobs are in flight, so a pool
// of at least that width reaches it.
func peakInFlight(t *testing.T, cfg engine.Config, n int, width int32) int32 {
	t.Helper()
	var inflight, peak atomic.Int32
	jobs := make([]engine.Job[int], n)
	for i := range jobs {
		jobs[i] = engine.Job[int]{Label: fmt.Sprint(i), Fn: func(context.Context) (int, error) {
			now := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			for deadline := time.Now().Add(time.Second); inflight.Load() < width && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			return i, nil
		}}
	}
	vals, err := engine.Map(context.Background(), cfg, jobs)
	if err != nil || len(vals) != n {
		t.Fatalf("Map = %v, %v", vals, err)
	}
	return peak.Load()
}

// TestWorkersClamp: the pool never exceeds the job count or Workers, and
// never drops below one.
func TestWorkersClamp(t *testing.T) {
	vals, err := engine.Map(context.Background(), engine.Config{Workers: -5}, []engine.Job[int](nil))
	if err != nil || vals == nil || len(vals) != 0 {
		t.Fatalf("Workers -5 over no jobs = %#v, %v; want an empty slice", vals, err)
	}
	if p := peakInFlight(t, engine.Config{Workers: 64}, 3, 3); p != 3 {
		t.Fatalf("Workers 64 over 3 jobs peaked at %d in flight, want 3", p)
	}
	if p := peakInFlight(t, engine.Config{Workers: 2}, 6, 2); p != 2 {
		t.Fatalf("Workers 2 over 6 jobs peaked at %d in flight, want 2", p)
	}
}

// TestProgressCallback: OnProgress fires once per job with increasing Done,
// the batch size in Total and the finished job's label, at one worker and
// at four.
func TestProgressCallback(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var events []engine.Progress
		cfg := engine.Config{
			Workers: workers,
			// Calls are serialized by Map, so appending is safe.
			OnProgress: func(p engine.Progress) { events = append(events, p) },
		}
		batch := make([]engine.Job[int], 9)
		for i := range batch {
			batch[i] = engine.Job[int]{Label: fmt.Sprintf("j%d", i), Fn: func(context.Context) (int, error) { return 0, nil }}
		}
		if _, err := engine.Map(context.Background(), cfg, batch); err != nil {
			t.Fatal(err)
		}
		if len(events) != len(batch) {
			t.Fatalf("workers=%d: %d progress events for %d jobs", workers, len(events), len(batch))
		}
		seen := map[string]bool{}
		for i, p := range events {
			if p.Done != i+1 || p.Total != len(batch) || p.Elapsed < 0 {
				t.Fatalf("workers=%d: event %d = %+v", workers, i, p)
			}
			seen[p.Label] = true
		}
		if len(seen) != len(batch) {
			t.Fatalf("workers=%d: progress named %d distinct jobs, want %d", workers, len(seen), len(batch))
		}
	}
}
