package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Config tunes an Engine. The zero value is a sensible default: one worker
// per CPU (capped at the job count), no timeout, run everything.
type Config struct {
	// Workers bounds concurrent jobs. <= 0 means min(jobs, GOMAXPROCS).
	// Workers == 1 runs jobs serially on the calling goroutine.
	Workers int
	// JobTimeout, when positive, bounds each job's wall time; an expired job
	// fails with a *JobError wrapping context.DeadlineExceeded.
	JobTimeout time.Duration
	// FailFast cancels the remaining jobs after the first job error. Jobs
	// already in flight still run to completion (or cancellation).
	FailFast bool
	// OnProgress, when non-nil, is invoked after every job finishes. Calls
	// are serialized; the callback must not block for long.
	OnProgress func(Progress)
}

// Job is one unit of independent work: a simulation, a stream
// materialization, a verification round.
type Job[T any] struct {
	// Label names the job in errors, progress lines, and metrics.
	Label string
	// Weight is the job's size in domain units (for the simulators:
	// accesses). It only feeds throughput metrics; zero is fine.
	Weight int64
	// Fn does the work. It must honor ctx for prompt cancellation and must
	// be safe to run concurrently with other jobs' Fn.
	Fn func(ctx context.Context) (T, error)
}

// Outcome is one job's result slot. Run returns outcomes indexed exactly
// like the submitted jobs, which is what makes parallel runs reproduce
// serial ones byte for byte.
type Outcome[T any] struct {
	// Index is the job's submission position.
	Index int
	// Label echoes Job.Label.
	Label string
	// Value is the job's return value; meaningful only when Err is nil.
	Value T
	// Err is nil on success, a *JobError on failure, panic, timeout, or
	// skip-after-cancellation.
	Err error
	// Wall is how long the job ran; zero for skipped jobs.
	Wall time.Duration
	// Skipped marks jobs never started because the run was cancelled.
	Skipped bool
}

// Progress is a point-in-time view handed to Config.OnProgress.
type Progress struct {
	// Done counts finished jobs (successes and failures), Failed the subset
	// that errored, Total the jobs submitted to this Run.
	Done, Failed, Total int
	// Index and Label identify the job that just finished.
	Index int
	Label string
	// Err is that job's error, if any.
	Err error
	// Elapsed is wall time since Run started.
	Elapsed time.Duration
}

// Engine executes batches of jobs under one Config, accumulating metrics
// across Run calls. An Engine is safe for use from multiple goroutines,
// though the usual shape is one Run per batch.
type Engine[T any] struct {
	cfg Config
	m   metrics
}

// New builds an Engine with the given configuration.
func New[T any](cfg Config) *Engine[T] {
	return &Engine[T]{cfg: cfg}
}

// Workers reports the pool size a batch of n jobs would use.
func (e *Engine[T]) Workers(n int) int {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes jobs and returns one Outcome per job, in submission order.
// The returned error is nil unless the parent context was cancelled (or its
// deadline passed), in which case it is that context's error and the
// outcomes still describe every job: finished ones normally, unstarted ones
// as skipped. Job-level failures never surface here — they live on the
// outcomes — so callers decide whether one bad job spoils the batch.
func (e *Engine[T]) Run(ctx context.Context, jobs []Job[T]) ([]Outcome[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	e.m.submitted.Add(int64(len(jobs)))

	outs := make([]Outcome[T], len(jobs))
	for i, j := range jobs {
		outs[i] = Outcome[T]{Index: i, Label: j.Label}
	}

	// FailFast needs a cancel handle of its own so a job error can stop
	// dispatch without the caller's context being touched.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		prog     progressState
		failFast = func() {}
	)
	prog.total = len(jobs)
	prog.start = start
	if e.cfg.FailFast {
		failFast = cancel
	}

	if e.Workers(len(jobs)) == 1 {
		// Serial fallback: same bookkeeping, no goroutines, deterministic
		// by construction.
		for i := range jobs {
			if runCtx.Err() != nil {
				e.skipFrom(outs, i, ctx)
				break
			}
			e.runJob(runCtx, jobs[i], &outs[i], &prog, failFast)
		}
	} else {
		e.runPool(runCtx, ctx, jobs, outs, &prog, failFast)
	}

	e.m.wallNanos.Add(int64(time.Since(start)))
	// Cancellation is reported from the caller's context, not runCtx: a
	// FailFast-triggered stop is a normal completion with failed outcomes.
	if err := ctx.Err(); err != nil {
		return outs, err
	}
	return outs, nil
}

// runPool fans jobs out to Workers goroutines via an index channel.
func (e *Engine[T]) runPool(runCtx, parent context.Context, jobs []Job[T], outs []Outcome[T], prog *progressState, failFast func()) {
	workers := e.Workers(len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				e.runJob(runCtx, jobs[i], &outs[i], prog, failFast)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-runCtx.Done():
			e.skipFrom(outs, i, parent)
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}

// skipFrom marks outs[from:] as skipped after a cancellation. The recorded
// error prefers the parent context's cause so callers see "deadline
// exceeded" rather than a bare cancel.
func (e *Engine[T]) skipFrom(outs []Outcome[T], from int, parent context.Context) {
	cause := parent.Err()
	if cause == nil {
		cause = context.Canceled
	}
	for i := from; i < len(outs); i++ {
		outs[i].Skipped = true
		outs[i].Err = &JobError{Index: outs[i].Index, Label: outs[i].Label, Err: cause, Skipped: true}
		e.m.skipped.Add(1)
	}
}

// runJob executes one job with timeout, panic containment, and accounting.
func (e *Engine[T]) runJob(ctx context.Context, job Job[T], out *Outcome[T], prog *progressState, failFast func()) {
	jctx := ctx
	if e.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, e.cfg.JobTimeout)
		defer cancel()
	}
	e.m.started.Add(1)
	jobStart := time.Now()

	v, err := e.call(jctx, job)

	out.Wall = time.Since(jobStart)
	e.m.busyNanos.Add(int64(out.Wall))
	if err != nil {
		je, ok := err.(*JobError)
		if !ok {
			je = &JobError{Err: err}
		}
		je.Index, je.Label = out.Index, out.Label
		out.Err = je
		e.m.failed.Add(1)
		if je.Panicked {
			e.m.panicked.Add(1)
		}
		failFast()
	} else {
		out.Value = v
		e.m.completed.Add(1)
		e.m.items.Add(job.Weight)
	}
	prog.emit(e.cfg.OnProgress, out.Index, out.Label, out.Err)
}

// call invokes the job function, converting a panic into a *JobError so a
// crashed simulation cannot take down the process or the pool.
func (e *Engine[T]) call(ctx context.Context, job Job[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{
				Err:      fmt.Errorf("panic: %v", r),
				Panicked: true,
				Stack:    debug.Stack(),
			}
		}
	}()
	return job.Fn(ctx)
}

// Snapshot returns the engine's cumulative counters.
func (e *Engine[T]) Snapshot() Snapshot {
	return e.m.snapshot()
}

// progressState serializes OnProgress callbacks and tracks batch counts.
type progressState struct {
	mu           sync.Mutex
	done, failed int
	total        int
	start        time.Time
}

func (p *progressState) emit(fn func(Progress), index int, label string, jobErr error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if jobErr != nil {
		p.failed++
	}
	if fn != nil {
		fn(Progress{
			Done: p.done, Failed: p.failed, Total: p.total,
			Index: index, Label: label, Err: jobErr,
			Elapsed: time.Since(p.start),
		})
	}
}

// Map is the convenience path for callers that want values, not outcomes:
// it runs jobs under a one-shot engine and unwraps the results, returning
// the first error (cancellation first, then job errors in submission order).
func Map[T any](ctx context.Context, cfg Config, jobs []Job[T]) ([]T, error) {
	outs, err := New[T](cfg).Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return Values(outs)
}

// Values unwraps outcomes into their values, preserving submission order.
// It returns the first outcome error encountered, so a caller that needs
// all-or-nothing semantics gets it in one call.
func Values[T any](outs []Outcome[T]) ([]T, error) {
	vals := make([]T, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, o.Err
		}
		vals[i] = o.Value
	}
	return vals, nil
}
