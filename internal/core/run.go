package core

import (
	"context"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

// Run drives up to max accesses of s (max <= 0 drains the stream) through a
// freshly built cache and controller of the given kind, then finalizes.
// This is the one-call entry point the experiment harness and examples use.
func Run(kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, error) {
	return RunContext(context.Background(), kind, cfg, opts, s, max)
}

// RunContext is Run with cancellation: the simulation polls ctx once per
// batch (trace.DefaultBatchSize accesses) and abandons the run with ctx's
// error once it is cancelled or past its deadline. It is RunStreamContext
// at the default batch size, so a stream that fails to decode returns
// *StreamError rather than ending the run early.
func RunContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, error) {
	return RunStreamContext(ctx, kind, cfg, opts, s, max, 0)
}
