package core

import (
	"context"
	"fmt"
	"sync"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// Driver feeds batches of accesses into one controller. It is the hot inner
// loop of the streaming pipeline: the per-access Stream interface dispatch,
// the context poll, and the access budget all live at batch granularity, so
// one walk of the batch and each accountant's pass over its outcomes are
// the only per-access work left.
//
// Drain never holds more than drainSlabs batches of the trace; memory stays
// constant no matter how long the stream is. It keeps the cache.Config its
// cache was built from, so it can checkpoint itself (Snapshot).
type Driver struct {
	// ctrl is what Feed calls access by access once Wrap has installed a
	// wrapper; until then it is inner, which Feed runs by the batch. inner
	// is the state Snapshot serializes.
	ctrl  Controller
	inner *controller
	cfg   cache.Config
	fed   uint64

	// every and sink configure Drain's per-batch checkpoints.
	every int
	sink  CheckpointSink
}

// drainSlabs is Drain's batch pool: the decoder fills one batch while the
// controller runs another. A deeper pool replayed no faster, and every
// running sramd job holds one.
const drainSlabs = 2

// NewDriver builds a fresh cache (over its own backing memory) and a
// controller of kind for batched feeding.
func NewDriver(kind Kind, cfg cache.Config, opts Options) (*Driver, error) {
	return newDriver(cfg, opts, kind)
}

// newDriver builds a fresh cache and one controller that walks it for every
// kind.
func newDriver(cfg cache.Config, opts Options, kinds ...Kind) (*Driver, error) {
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		return nil, err
	}
	ctrl, err := newController(c, opts, kinds...)
	if err != nil {
		return nil, err
	}
	return &Driver{ctrl: ctrl, inner: ctrl, cfg: cfg}, nil
}

// Wrap interposes on every access the driver feeds: w receives the current
// controller and the cache under it, and returns a Controller that forwards
// to the one it was given — the role the port-op logger plays in RunLogged;
// internal/hier hangs its L1→L2 bridge here. Snapshot serializes only the
// controller underneath, so a wrapper's own state is not checkpointed.
func (d *Driver) Wrap(w func(ctrl Controller, c *cache.Cache) Controller) {
	d.ctrl = w(d.ctrl, d.inner.walk.cache)
}

// PeekCounters returns a copy of the live counters mid-run. internal/hier
// diffs successive peeks to attribute microarchitectural events (premature
// Set-Buffer write-backs) to the access that caused them, since those never
// reach backing memory and so never fire a cache.Listener.
func (d *Driver) PeekCounters() Counters { return d.inner.accts[0].book().counters }

// CheckpointEvery makes Drain serialize the driver (Snapshot) after every
// `every`-th fed batch and hand the blob to sink. every <= 0 or a nil sink
// turns checkpointing off.
func (d *Driver) CheckpointEvery(every int, sink CheckpointSink) {
	if every <= 0 {
		sink = nil
	}
	d.every, d.sink = every, sink
}

// Feed runs every access of batch through the controller, in order: as one
// batch through the controller's batch entry, or access by access through
// a wrapper (Wrap, RunLogged), which sees every access.
func (d *Driver) Feed(batch []trace.Access) {
	if d.ctrl == d.inner {
		d.inner.feed(batch)
	} else {
		for i := range batch {
			d.ctrl.Access(batch[i])
		}
	}
	d.fed += uint64(len(batch))
}

// Accesses returns how many accesses have been fed, including those a
// resumed driver simulated before its snapshot.
func (d *Driver) Accesses() uint64 { return d.fed }

// Finish drains the controller's buffers and returns the run's Result. The
// driver (and its controller) must not be used afterwards.
func (d *Driver) Finish() Result { return d.ctrl.Finalize() }

// Drain is the one loop that pulls a trace.Stream into a controller. It
// feeds up to max accesses of s (max <= 0 drains the stream) in reusable
// batches of batchSize (<= 0 means trace.DefaultBatchSize; a bounded run
// never buffers more than max), then finishes the driver. s is read on a
// second goroutine, at most drainSlabs batches ahead of the controller;
// Drain joins it before returning, and a panic there resurfaces here.
// Along the way Drain
//
//   - polls ctx once per batch and returns its error once it is done;
//   - skips the first Accesses() accesses of s, so a resumed driver replays
//     only the suffix of the stream its snapshot was taken on (a fresh
//     driver skips nothing);
//   - snapshots into the CheckpointEvery sink every N fed batches;
//   - returns *StreamError, with the count of accesses simulated cleanly,
//     when s fails to decode.
//
// A stream that ends, or a budget that stops, before the resume position
// fails with ErrBadCheckpoint.
func (d *Driver) Drain(ctx context.Context, s trace.Stream, max, batchSize int) (Result, error) {
	if err := d.drain(ctx, s, max, batchSize); err != nil {
		return Result{}, err
	}
	return d.Finish(), nil
}

// drain is Drain short of finishing the driver.
func (d *Driver) drain(ctx context.Context, s trace.Stream, max, batchSize int) error {
	skip := d.fed
	if max > 0 {
		if skip > uint64(max) {
			return fmt.Errorf("%w: snapshot is %d accesses in, past the %d-access budget", ErrBadCheckpoint, skip, max)
		}
		s = trace.NewLimit(s, uint64(max))
	}
	// Stop joins the decoder on every return, so the caller may close s as
	// soon as Drain returns.
	fan := trace.NewBroadcast(s, batchSizeFor(max, batchSize), 1, drainSlabs)
	defer fan.Stop()
	feed := fan.Sub(0)
	batches := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch, ok := feed.Next()
		if !ok {
			break
		}
		if skip > 0 {
			n := min(skip, uint64(len(batch)))
			batch, skip = batch[n:], skip-n
			if len(batch) == 0 {
				continue
			}
		}
		d.Feed(batch)
		batches++
		if d.sink != nil && batches%d.every == 0 {
			blob, err := d.Snapshot()
			if err != nil {
				return err
			}
			if err := d.sink(blob, d.fed); err != nil {
				return fmt.Errorf("core: checkpoint sink: %w", err)
			}
		}
	}
	if err := fan.Err(); err != nil {
		return &StreamError{Accesses: d.fed - skip, Err: err}
	}
	if skip > 0 {
		return fmt.Errorf("%w: stream ended %d accesses short of the snapshot position", ErrBadCheckpoint, skip)
	}
	return nil
}

// RunStreamContext drives up to max accesses of s (max <= 0 drains the
// stream) through a freshly built cache and controller, pulling the stream
// in reusable batches of batchSize (<= 0 means trace.DefaultBatchSize) and
// polling ctx once per batch. Results are identical access-for-access to
// Run over the same accesses, the trace is never materialized, and decode
// errors come back as *StreamError.
func RunStreamContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize int) (Result, error) {
	d, err := NewDriver(kind, cfg, opts)
	if err != nil {
		return Result{}, err
	}
	return d.Drain(ctx, s, max, batchSize)
}

// RunEachStream runs every kind over the stream from open, which it calls
// once, and returns the results in kind order. Each access is walked once
// for all kinds: on one goroutine, or over the walks PlanShards allows,
// with every kind's accountant charging each walked batch. A seven-kind
// comparison thus decodes its trace and walks its cache once instead of
// seven times, and every kind's Result is byte-identical to its own
// RunStreamContext over the same accesses.
func RunEachStream(ctx context.Context, kinds []Kind, cfg cache.Config, opts Options, open func() (trace.Stream, error), max, batchSize, shards int) ([]Result, error) {
	// Build before opening the stream, so construction errors surface
	// without spinning up the decoder. Every kind plans alike.
	var run func(trace.Stream) ([]Result, error)
	if k := PlanShards(0, cfg, shards).Shards; k > 1 {
		r, err := newShardRun(cfg, opts, k, kinds...)
		if err != nil {
			return nil, err
		}
		run = func(s trace.Stream) ([]Result, error) { return r.run(ctx, s, max, batchSize) }
	} else {
		d, err := newDriver(cfg, opts, kinds...)
		if err != nil {
			return nil, err
		}
		run = func(s trace.Stream) ([]Result, error) {
			if err := d.drain(ctx, s, max, batchSize); err != nil {
				return nil, err
			}
			return d.inner.results(), nil
		}
	}
	s, err := open()
	if err != nil {
		return nil, err
	}
	return run(s)
}

// feedEach drains feed i of fan into stages[i], one goroutine per stage,
// polling ctx once per batch, then joins them and stops fan, so the source
// is no longer being read when it returns. A stage blocked on another must
// also wait on the ctx it is handed. The first error a stage returns stops
// every stage and is returned, as is the context error they stopped on. A
// panic in the source or any stage stops the others and is re-raised here,
// on the caller's goroutine, where the engine's containment can recover it.
// How the stream itself ended is fan.Err.
func feedEach(ctx context.Context, fan *trace.Fanout, stages []func(context.Context, trace.Batch) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	errs := make([]error, len(stages))
	panics := make([]any, len(stages))
	var wg sync.WaitGroup
	for i, stage := range stages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed := fan.Sub(i)
			// Stopping keeps the decoder flowing past this feed while the
			// others notice the cancel.
			defer feed.Stop()
			defer func() {
				if panics[i] = recover(); panics[i] != nil {
					cancel(nil)
				}
			}()
			for ctx.Err() == nil {
				batch, ok := feed.Next()
				if !ok {
					return
				}
				if err := stage(ctx, batch); err != nil {
					cancel(err)
				}
			}
			// The first cancellation fixes the cause, so every stage that
			// stopped early records the same error.
			errs[i] = context.Cause(ctx)
		}()
	}
	wg.Wait()
	fan.Stop()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchSizeFor resolves a requested batch size against an access budget:
// size <= 0 means trace.DefaultBatchSize, and a bounded run never buffers
// more than its budget.
func batchSizeFor(max, size int) int {
	if size <= 0 {
		size = trace.DefaultBatchSize
	}
	if max > 0 && size > max {
		size = max
	}
	return size
}

// StreamError reports a trace decode failure mid-run, with how many accesses
// simulated cleanly before it.
type StreamError struct {
	Accesses uint64
	Err      error
}

// Error implements error.
func (e *StreamError) Error() string {
	return fmt.Sprintf("core: trace decode failed after %d accesses: %v", e.Accesses, e.Err)
}

// Unwrap exposes the decode error.
func (e *StreamError) Unwrap() error { return e.Err }
