// Package engine is the repository's one bounded fan-out: Map runs
// independent jobs on a pool of goroutines, the caller among them, under
// per-job timeouts and panic containment, and returns their values in
// submission order.
//
// The package is generic over the job result type and depends on nothing
// else in this repository, so every layer fans work out through it without
// import cycles: the experiments harness, cmd/calibrate and cmd/sweep run
// their benchmark jobs on it, the job server runs each job as a one-job Map,
// and the coordinator dispatches a sweep's points through it.
//
// # Determinism
//
// Values land by submission index, whatever order the workers finish in. A
// job function that is itself deterministic therefore produces
// byte-identical aggregate output at one worker or many. This is the
// contract the rest of the repository leans on: a parallel sweep must
// reproduce the serial tables exactly.
//
// # Failure containment
//
// A job that returns an error or panics becomes a *JobError naming the job;
// the process never dies and the other jobs still run. Map returns the
// first failure in submission order. Once the parent context ends, no
// further job starts and Map returns that context's error.
package engine
