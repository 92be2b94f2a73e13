package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes one Map call. The zero value runs one worker per CPU (capped
// at the job count) with no timeout.
type Config struct {
	// Workers bounds concurrent jobs: Map runs min(Workers, len(jobs))
	// goroutines, at least one. <= 0 means GOMAXPROCS.
	Workers int
	// JobTimeout, when positive, bounds each job's wall time: the job's
	// context ends with context.DeadlineExceeded.
	JobTimeout time.Duration
	// OnProgress, when non-nil, is called after every job finishes, from
	// one goroutine, so calls are serialized.
	OnProgress func(Progress)
}

// Job is one unit of independent work: a simulation, a job server's run, a
// sweep point's dispatch.
type Job[T any] struct {
	// Label names the job in errors and progress lines.
	Label string
	// Fn does the work. It must honor ctx for prompt cancellation and must
	// be safe to run concurrently with other jobs' Fn.
	Fn func(ctx context.Context) (T, error)
}

// Progress is handed to Config.OnProgress after each job finishes.
type Progress struct {
	// Done counts finished jobs (successes and failures), Total the jobs
	// handed to Map.
	Done, Total int
	// Label names the job that just finished.
	Label string
	// Elapsed is wall time since Map started.
	Elapsed time.Duration
}

// JobError is the failure of one job: a returned error or a recovered
// panic. It wraps the cause for errors.Is/As.
type JobError struct {
	// Label echoes Job.Label.
	Label string
	// Err is the underlying cause.
	Err error
	// Panicked marks an error converted from a recovered panic; Stack then
	// holds the goroutine stack captured at recovery.
	Panicked bool
	Stack    []byte
}

// Error implements error.
func (e *JobError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("engine: job %s panicked: %v", e.Label, e.Err)
	}
	return fmt.Sprintf("engine: job %s: %v", e.Label, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Map runs jobs on a pool of min(cfg.Workers, len(jobs)) goroutines, the
// calling goroutine among them, each taking the next job in submission
// order, and returns their values in that order. Every job runs, whatever
// its siblings do; Map then returns the first failure in submission order,
// a *JobError. Once ctx ends, no further job starts and Map returns ctx's
// error.
func Map[T any](ctx context.Context, cfg Config, jobs []Job[T]) ([]T, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(jobs)))
	vals := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	var (
		next         atomic.Int64
		wg, reported sync.WaitGroup
		finished     chan string // labels of finished jobs, for OnProgress
	)
	if cfg.OnProgress != nil {
		finished = make(chan string, len(jobs)) // one send per job
		reported.Add(1)
		go func() {
			defer reported.Done()
			start, done := time.Now(), 0
			for label := range finished {
				done++
				cfg.OnProgress(Progress{Done: done, Total: len(jobs), Label: label, Elapsed: time.Since(start)})
			}
		}()
	}
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			vals[i], errs[i] = run(ctx, cfg.JobTimeout, jobs[i])
			if finished != nil {
				finished <- jobs[i].Label
			}
		}
	}
	// The caller works too, so a one-job Map (the job server runs one per
	// job) starts no goroutine: handing each job to a fresh goroutine
	// measured 2-5% slower job server submit-to-result latency on a 2-vCPU
	// host.
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if finished != nil {
		close(finished)
		reported.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// run calls one job under its timeout and turns a failure or a panic into a
// *JobError, so a crashed simulation cannot take down the process or the
// pool.
func run[T any](ctx context.Context, timeout time.Duration, job Job[T]) (v T, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{Label: job.Label, Err: fmt.Errorf("panic: %v", r), Panicked: true, Stack: debug.Stack()}
		}
	}()
	if v, err = job.Fn(ctx); err != nil {
		err = &JobError{Label: job.Label, Err: err}
	}
	return v, err
}
