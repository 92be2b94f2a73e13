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
					return core.RunContext(ctx, k, shape, core.Options{}, trace.FromSlice(accs), 0)
				},
			})
		}
	}
	return jobs
}

// TestRunDeterminism is the subsystem's headline contract: a parallel run
// must be byte-identical to a serial run — same results in the same order,
// and therefore identical downstream stats aggregates.
func TestRunDeterminism(t *testing.T) {
	serialOuts, err := engine.New[core.Result](engine.Config{Workers: 1}).Run(context.Background(), simJobs(t, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := engine.Values(serialOuts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parOuts, err := engine.New[core.Result](engine.Config{Workers: workers}).Run(context.Background(), simJobs(t, 20_000))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := engine.Values(parOuts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d results differ from serial", workers)
		}
		// The aggregate a table would print must match exactly too.
		agg := func(rs []core.Result) []float64 {
			var reds []float64
			for _, r := range rs[1:] {
				reds = append(reds, stats.Reduction(r.ArrayAccesses(), rs[0].ArrayAccesses()))
			}
			return reds
		}
		if !reflect.DeepEqual(agg(serial), agg(parallel)) {
			t.Fatalf("workers=%d stats aggregates differ from serial", workers)
		}
	}
}

// TestRunAllMatchesEngine pins the fan-out contract: core.RunAll (the
// serial path) and the same kinds mapped across 8 engine workers agree
// result-for-result, in kind order.
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
	serial, err := core.RunAll(context.Background(), core.Kinds(), cfg, core.Options{}, accs)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]engine.Job[core.Result], len(core.Kinds()))
	for i, k := range core.Kinds() {
		jobs[i] = engine.Job[core.Result]{
			Label: k.String(),
			Fn: func(ctx context.Context) (core.Result, error) {
				return core.RunContext(ctx, k, cfg, core.Options{}, trace.FromSlice(accs), 0)
			},
		}
	}
	parallel, err := engine.Map(context.Background(), engine.Config{Workers: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("engine.Map(workers=8) differs from RunAll")
	}
	for i, k := range core.Kinds() {
		if parallel[i].Controller != k {
			t.Fatalf("kind order broken: got %v at %d, want %v", parallel[i].Controller, i, k)
		}
	}
}

// TestRunCancellation cancels mid-batch and checks Run returns promptly
// with partial, well-formed outcomes: completed jobs carry values, the rest
// are marked skipped with a structured error.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const jobs = 32
	var started atomic.Int32
	batch := make([]engine.Job[int], jobs)
	for i := range batch {
		i := i
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
	outs, err := engine.New[int](engine.Config{Workers: 4}).Run(ctx, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", wall)
	}
	if len(outs) != jobs {
		t.Fatalf("got %d outcomes, want %d", len(outs), jobs)
	}
	var done, skipped int
	for i, o := range outs {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d", i, o.Index)
		}
		switch {
		case o.Skipped:
			skipped++
			var je *engine.JobError
			if !errors.As(o.Err, &je) || !je.Skipped {
				t.Fatalf("skipped outcome %d has error %v, want skipped JobError", i, o.Err)
			}
		case o.Err == nil:
			done++
			if o.Value != i {
				t.Fatalf("outcome %d has value %d", i, o.Value)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("cancellation mid-batch skipped no jobs")
	}
	if done+skipped > jobs {
		t.Fatalf("done=%d skipped=%d exceed %d jobs", done, skipped, jobs)
	}
}

// TestPanicRecovery: one crashing job becomes a structured JobError with a
// stack; the rest of the batch completes and the process survives.
func TestPanicRecovery(t *testing.T) {
	batch := []engine.Job[string]{
		{Label: "ok-before", Fn: func(context.Context) (string, error) { return "a", nil }},
		{Label: "boom", Fn: func(context.Context) (string, error) { panic("simulated controller crash") }},
		{Label: "ok-after", Fn: func(context.Context) (string, error) { return "b", nil }},
	}
	for _, workers := range []int{1, 3} {
		eng := engine.New[string](engine.Config{Workers: workers})
		outs, err := eng.Run(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Err != nil || outs[2].Err != nil {
			t.Fatalf("workers=%d: healthy jobs failed: %v %v", workers, outs[0].Err, outs[2].Err)
		}
		var je *engine.JobError
		if !errors.As(outs[1].Err, &je) {
			t.Fatalf("workers=%d: panic produced %T, want *JobError", workers, outs[1].Err)
		}
		if !je.Panicked || len(je.Stack) == 0 {
			t.Fatalf("workers=%d: JobError missing panic details: %+v", workers, je)
		}
		if !strings.Contains(je.Error(), "simulated controller crash") {
			t.Fatalf("workers=%d: error text %q lacks panic value", workers, je.Error())
		}
		if s := eng.Snapshot(); s.JobsPanicked != 1 || s.JobsFailed != 1 || s.JobsCompleted != 2 {
			t.Fatalf("workers=%d: snapshot %+v, want 1 panic / 1 failed / 2 completed", workers, s)
		}
	}
}

// TestJobTimeout: a job exceeding Config.JobTimeout fails with a deadline
// error without disturbing its siblings.
func TestJobTimeout(t *testing.T) {
	batch := []engine.Job[bool]{
		{Label: "fast", Fn: func(context.Context) (bool, error) { return true, nil }},
		{Label: "slow", Fn: func(jctx context.Context) (bool, error) {
			<-jctx.Done()
			return false, jctx.Err()
		}},
	}
	outs, err := engine.New[bool](engine.Config{Workers: 2, JobTimeout: 20 * time.Millisecond}).Run(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || !outs[0].Value {
		t.Fatalf("fast job: %+v", outs[0])
	}
	if !errors.Is(outs[1].Err, context.DeadlineExceeded) {
		t.Fatalf("slow job error = %v, want deadline exceeded", outs[1].Err)
	}
}

// TestFailFast: with FailFast set, the first error stops dispatch; in
// serial mode every later job is skipped.
func TestFailFast(t *testing.T) {
	boom := errors.New("boom")
	batch := []engine.Job[int]{
		{Label: "ok", Fn: func(context.Context) (int, error) { return 1, nil }},
		{Label: "bad", Fn: func(context.Context) (int, error) { return 0, boom }},
		{Label: "never", Fn: func(context.Context) (int, error) { return 3, nil }},
	}
	outs, err := engine.New[int](engine.Config{Workers: 1, FailFast: true}).Run(context.Background(), batch)
	if err != nil {
		t.Fatalf("fail-fast is a normal completion, got %v", err)
	}
	if outs[0].Err != nil {
		t.Fatalf("first job failed: %v", outs[0].Err)
	}
	if !errors.Is(outs[1].Err, boom) {
		t.Fatalf("second job error = %v, want boom", outs[1].Err)
	}
	if !outs[2].Skipped {
		t.Fatalf("third job ran despite fail-fast: %+v", outs[2])
	}
}

// TestMapError: Map surfaces the first failing job's error in submission
// order, wrapped as a JobError naming the job.
func TestMapError(t *testing.T) {
	batch := []engine.Job[int]{
		{Label: "fine", Fn: func(context.Context) (int, error) { return 1, nil }},
		{Label: "broken", Fn: func(context.Context) (int, error) { return 0, errors.New("nope") }},
	}
	_, err := engine.Map(context.Background(), engine.Config{Workers: 2}, batch)
	var je *engine.JobError
	if !errors.As(err, &je) || je.Label != "broken" {
		t.Fatalf("Map error = %v, want JobError for %q", err, "broken")
	}
}

// TestWorkersClamp: the pool never exceeds the job count and never drops
// below one.
func TestWorkersClamp(t *testing.T) {
	e := engine.New[int](engine.Config{Workers: 64})
	if got := e.Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d with 64 configured, want 3", got)
	}
	e = engine.New[int](engine.Config{Workers: -5})
	if got := e.Workers(0); got != 1 {
		t.Fatalf("Workers(0) = %d, want 1", got)
	}
}
