// Package engine is the experiment-execution subsystem: it turns "run N
// independent simulations" into a first-class service with a bounded worker
// pool, context cancellation, per-job timeouts, panic containment, live
// progress, and engine-level metrics.
//
// The engine is generic over the job result type and deliberately depends on
// nothing else in this repository, so every layer — experiments, the job
// server, the CLIs — can fan work out through it without import cycles. The
// experiments grid helpers are thin adapters over this package.
//
// # Determinism
//
// Results are aggregated by submission index: Run returns one Outcome per
// Job, in the order the jobs were submitted, regardless of the order workers
// finished them. A job function that is itself deterministic therefore
// produces byte-identical aggregate output whether the pool runs with one
// worker or many. This is the contract the rest of the repository leans on —
// a parallel sweep must reproduce the serial tables exactly.
//
// # Failure containment
//
// A job that returns an error or panics is converted into a *JobError
// recorded on its Outcome; the process never dies and the other jobs keep
// running (unless Config.FailFast cancels them). Cancellation via the parent
// context stops dispatch promptly and marks never-started jobs as skipped,
// so partial results are always well formed.
package engine
