package core

import (
	"context"
	"fmt"
	"sync"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// Driver feeds batches of accesses into one controller: one walk of its
// cache and an accountant per scheme. It is the hot inner loop of the
// streaming pipeline: the per-access Stream interface dispatch, the context
// poll, and the access budget all live at batch granularity, so one walk of
// the batch and each accountant's pass over its outcomes are the only
// per-access work left.
//
// Drain never holds more than drainSlabs batches of the trace; memory stays
// constant no matter how long the stream is. It keeps the cache.Config its
// cache was built from, so it can checkpoint itself (Snapshot).
type Driver struct {
	// ctrl is what Feed calls access by access once RunLogged has installed
	// its port-op logger; until then it is inner, which Feed runs by the
	// batch. inner is the state Snapshot serializes.
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

// NewDriver builds a fresh cache of shape cfg (over its own backing memory)
// and one walk of it that every scheme accounts for.
func NewDriver(cfg cache.Config, schemes ...Scheme) (*Driver, error) {
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		return nil, err
	}
	ctrl, err := newController(c, schemes...)
	if err != nil {
		return nil, err
	}
	return &Driver{ctrl: ctrl, inner: ctrl, cfg: cfg}, nil
}

// Listen makes l the cache's listener: it hears every fill and write-back to
// backing memory as the walk makes them, in access order — how
// internal/hier drives its second level. Snapshot does not record it.
func (d *Driver) Listen(l cache.Listener) { d.inner.walk.cache.SetListener(l) }

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
// RunLogged's logger, which sees every access.
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

// Finish drains every accountant's buffers and returns one Result per
// scheme, in order. The driver must not be used afterwards.
func (d *Driver) Finish() []Result { return d.inner.results() }

// Drain is the one loop that pulls a trace.Stream into a controller. It
// feeds up to max accesses of s (max <= 0 drains the stream) in reusable
// batches of batchSize (<= 0 means trace.DefaultBatchSize; a bounded run
// never buffers more than max), then finishes the driver (Finish). s is
// read on a second goroutine, at most drainSlabs batches ahead of the
// controller; Drain joins it before returning, and a panic there resurfaces
// here. Along the way Drain
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
func (d *Driver) Drain(ctx context.Context, s trace.Stream, max, batchSize int) ([]Result, error) {
	skip := d.fed
	if max > 0 {
		if skip > uint64(max) {
			return nil, fmt.Errorf("%w: snapshot is %d accesses in, past the %d-access budget", ErrBadCheckpoint, skip, max)
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
			return nil, err
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
				return nil, err
			}
			if err := d.sink(blob, d.fed); err != nil {
				return nil, fmt.Errorf("core: checkpoint sink: %w", err)
			}
		}
	}
	if err := fan.Err(); err != nil {
		return nil, &StreamError{Accesses: d.fed - skip, Err: err}
	}
	if skip > 0 {
		return nil, fmt.Errorf("%w: stream ended %d accesses short of the snapshot position", ErrBadCheckpoint, skip)
	}
	return d.Finish(), nil
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
