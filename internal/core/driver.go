package core

import (
	"context"
	"fmt"
	"sync"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// Driver feeds batches of accesses into one Controller. It is the hot inner
// loop of the streaming pipeline: the per-access Stream interface dispatch,
// the context poll, and the access budget all live at batch granularity, so
// the controller's Access method is the only per-access work left.
//
// A Driver never holds more than one batch of the trace; memory stays
// constant no matter how long the stream is. It keeps the cache.Config its
// cache was built from, so it can checkpoint itself (Snapshot).
type Driver struct {
	// ctrl is what Feed calls: the controller, or a wrapper installed by
	// Wrap. inner is always the package controller, the state Snapshot
	// serializes.
	ctrl  Controller
	inner Controller
	cfg   cache.Config
	fed   uint64

	// every and sink configure Drain's per-batch checkpoints.
	every int
	sink  CheckpointSink
}

// NewDriver builds a fresh cache (over its own backing memory) and a
// controller of kind for batched feeding.
func NewDriver(kind Kind, cfg cache.Config, opts Options) (*Driver, error) {
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		return nil, err
	}
	ctrl, err := New(kind, c, opts)
	if err != nil {
		return nil, err
	}
	return &Driver{ctrl: ctrl, inner: ctrl, cfg: cfg}, nil
}

// Wrap interposes on every access the driver feeds: w receives the current
// controller and the cache under it, and returns a Controller that forwards
// to the one it was given — the role a LoggedController plays in RunLogged;
// internal/hier hangs its L1→L2 bridge here. Snapshot serializes only the
// controller underneath, so a wrapper's own state is not checkpointed.
func (d *Driver) Wrap(w func(ctrl Controller, c *cache.Cache) Controller) {
	d.ctrl = w(d.ctrl, d.inner.(baseHolder).baseState().cache)
}

// CheckpointEvery makes Drain serialize the driver (Snapshot) after every
// `every`-th fed batch and hand the blob to sink. every <= 0 or a nil sink
// turns checkpointing off.
func (d *Driver) CheckpointEvery(every int, sink CheckpointSink) {
	if every <= 0 {
		sink = nil
	}
	d.every, d.sink = every, sink
}

// Feed runs every access of batch through the controller, in order.
func (d *Driver) Feed(batch []trace.Access) {
	for i := range batch {
		d.ctrl.Access(batch[i])
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
// never buffers more than max), then finishes the driver. Along the way it
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
	skip := d.fed
	if max > 0 {
		if skip > uint64(max) {
			return Result{}, fmt.Errorf("%w: snapshot is %d accesses in, past the %d-access budget", ErrBadCheckpoint, skip, max)
		}
		s = trace.NewLimit(s, uint64(max))
	}
	b := trace.NewBatcher(s, batchSizeFor(max, batchSize))
	batches := 0
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		batch, ok := b.Next()
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
				return Result{}, err
			}
			if err := d.sink(blob, d.fed); err != nil {
				return Result{}, fmt.Errorf("core: checkpoint sink: %w", err)
			}
		}
	}
	if err := b.Err(); err != nil {
		return Result{}, &StreamError{Accesses: d.fed - skip, Err: err}
	}
	if skip > 0 {
		return Result{}, fmt.Errorf("%w: stream ended %d accesses short of the snapshot position", ErrBadCheckpoint, skip)
	}
	return d.Finish(), nil
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

// RunEachStream runs every kind over the stream from open and returns the
// results in kind order. With shards <= 1 and several kinds, open is called
// once and a trace.Broadcast fans the decoded batches out to one controller
// goroutine per kind — a seven-kind comparison decodes its gzip trace once
// instead of seven times, and no kind ever holds the full trace. Otherwise
// each kind runs RunShardedContext over its own fresh open, so callers must
// make open yield identical streams (a re-seeded generator or a replayed
// slice). Every controller sees the exact same access sequence either way,
// so results are byte-identical to RunAll over the materialized accesses.
func RunEachStream(ctx context.Context, kinds []Kind, cfg cache.Config, opts Options, open func() (trace.Stream, error), max, batchSize, shards int) ([]Result, error) {
	if shards > 1 || len(kinds) <= 1 {
		out := make([]Result, len(kinds))
		for i, k := range kinds {
			s, err := open()
			if err != nil {
				return nil, err
			}
			if out[i], err = RunShardedContext(ctx, k, cfg, opts, s, max, batchSize, shards); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// Build every controller before opening the stream, so construction
	// errors surface without spinning up the decoder.
	drivers := make([]*Driver, len(kinds))
	for i, k := range kinds {
		d, err := NewDriver(k, cfg, opts)
		if err != nil {
			return nil, err
		}
		drivers[i] = d
	}
	s, err := open()
	if err != nil {
		return nil, err
	}
	if max > 0 {
		s = trace.NewLimit(s, uint64(max))
	}
	bc := trace.NewBroadcast(s, batchSizeFor(max, batchSize), len(kinds), 0)
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i := range kinds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := bc.Sub(i)
			for {
				if err := ctx.Err(); err != nil {
					sub.Stop()
					errs[i] = err
					return
				}
				batch, ok := sub.Next()
				if !ok {
					return
				}
				drivers[i].Feed(batch)
			}
		}(i)
	}
	wg.Wait()
	bc.Stop()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := bc.Err(); err != nil {
		return nil, &StreamError{Accesses: drivers[0].Accesses(), Err: err}
	}
	out := make([]Result, len(kinds))
	for i, d := range drivers {
		out[i] = d.Finish()
	}
	return out, nil
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
