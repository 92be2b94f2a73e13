package core

import (
	"context"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

// RunSchemes is the package's run entry. It runs every scheme over the
// stream from open, which it calls once, on a fresh cache of shape cfg, and
// returns one Result per scheme, in order. It feeds up to max accesses
// (max <= 0 drains the stream) in batches of batchSize (<= 0 means
// trace.DefaultBatchSize), polls ctx once per batch, and returns
// *StreamError when the stream fails to decode.
//
// Each access is walked once for every scheme: on one goroutine, or over the
// walks PlanShards allows for shards, with every scheme's accountant
// charging each walked batch. Schemes may differ in options as well as in
// kind, and each Result is byte-identical to a run of its scheme alone over
// the same accesses.
func RunSchemes(ctx context.Context, schemes []Scheme, cfg cache.Config, open func() (trace.Stream, error), max, batchSize, shards int) ([]Result, error) {
	// Build before opening the stream, so construction errors surface
	// without spinning up the decoder.
	var run func(trace.Stream) ([]Result, error)
	if k := PlanShards(cfg, shards).Shards; k > 1 {
		r, err := newShardRun(cfg, k, schemes...)
		if err != nil {
			return nil, err
		}
		run = func(s trace.Stream) ([]Result, error) { return r.run(ctx, s, max, batchSize) }
	} else {
		d, err := NewDriver(cfg, schemes...)
		if err != nil {
			return nil, err
		}
		run = func(s trace.Stream) ([]Result, error) { return d.Drain(ctx, s, max, batchSize) }
	}
	s, err := open()
	if err != nil {
		return nil, err
	}
	return run(s)
}

// RunContext, RunStreamContext and RunShardedContext run one scheme over an
// open stream through RunSchemes: at the default batch size, at batchSize,
// and over shards walks. Only the benchmark harness under bench/ still
// calls them; they go once it moves to RunSchemes.
func RunContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, error) {
	return runStream(ctx, Scheme{kind, opts}, cfg, s, max, 0, 1)
}

// RunStreamContext is RunContext at batchSize.
func RunStreamContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize int) (Result, error) {
	return runStream(ctx, Scheme{kind, opts}, cfg, s, max, batchSize, 1)
}

// RunShardedContext is RunStreamContext over shards walks.
func RunShardedContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize, shards int) (Result, error) {
	return runStream(ctx, Scheme{kind, opts}, cfg, s, max, batchSize, shards)
}

// runStream is RunSchemes for one scheme over an open stream.
func runStream(ctx context.Context, sc Scheme, cfg cache.Config, s trace.Stream, max, batchSize, shards int) (Result, error) {
	res, err := RunSchemes(ctx, []Scheme{sc}, cfg, func() (trace.Stream, error) { return s, nil }, max, batchSize, shards)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}
