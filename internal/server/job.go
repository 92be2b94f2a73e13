package server

import (
	"context"
	"sync/atomic"
	"time"

	"cache8t/internal/trace"
)

// progressNotifyStride is how many decoded accesses pass between SSE
// progress wake-ups. Counting is per decoded batch (one atomic add);
// notification is throttled so a million-access job broadcasts dozens of
// events, not a million.
const progressNotifyStride = 1 << 16

// Job is one submitted simulation: the validated spec, the resolved input
// source, and the lifecycle the HTTP handlers observe. The artifact bytes
// are the lifecycle's result.
type Job struct {
	*Lifecycle
	// ID is the server-assigned job identifier.
	ID string
	// Spec is the validated, normalized spec as submitted.
	Spec JobSpec
	// Source names the input ("bwaves", or "trace:sha256:…" for uploads).
	Source string
	// ConfigHash is the sha256 the finished artifact's config will carry,
	// computed at submit time so clients can correlate before completion.
	ConfigHash string

	// tracePath is the spooled upload backing a trace job ("" = workload).
	tracePath string
	// bytesIngested is the spooled trace size in bytes (0 = workload).
	bytesIngested int64

	// accesses counts decoded accesses — live progress for status and SSE.
	accesses atomic.Uint64
	// cached flags an artifact served from the result cache, not computed.
	// The bytes are identical to a computed run (the identity tests pin
	// that), so this is pure provenance, surfaced as `"cached": true`.
	cached atomic.Bool
}

// newJob builds a queued job submitted at now, whose context descends from
// parent.
func newJob(parent context.Context, id string, spec JobSpec, source, configHash string, now time.Time) *Job {
	return &Job{Lifecycle: NewLifecycle(parent, now), ID: id, Spec: spec, Source: source, ConfigHash: configHash}
}

// JobStatus is the wire form of a job's observable state.
type JobStatus struct {
	ID         string  `json:"id"`
	State      State   `json:"state"`
	Spec       JobSpec `json:"spec"`
	Source     string  `json:"source"`
	ConfigHash string  `json:"config_hash"`
	// Accesses is live progress: accesses decoded so far (== the total once
	// the job succeeds).
	Accesses      uint64 `json:"accesses"`
	BytesIngested int64  `json:"bytes_ingested,omitempty"`
	// Cached marks an artifact served from the result cache rather than
	// simulated; the bytes are identical either way.
	Cached bool `json:"cached,omitempty"`
	// Recovered marks a job replayed from the journal after a daemon restart.
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
	// SubmittedUnixMS stamps submission; QueueMS and RunMS split the job's
	// life between waiting and executing (running jobs report RunMS so far).
	SubmittedUnixMS int64   `json:"submitted_unix_ms"`
	QueueMS         float64 `json:"queue_ms,omitempty"`
	RunMS           float64 `json:"run_ms,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	l := j.Snapshot(time.Now())
	return JobStatus{
		ID:              j.ID,
		State:           l.State,
		Spec:            j.Spec,
		Source:          j.Source,
		ConfigHash:      j.ConfigHash,
		Accesses:        j.accesses.Load(),
		BytesIngested:   j.bytesIngested,
		Cached:          j.cached.Load(),
		Recovered:       l.Recovered,
		Error:           l.Error,
		SubmittedUnixMS: l.SubmittedUnixMS,
		QueueMS:         l.QueueMS,
		RunMS:           l.RunMS,
	}
}

// countingStream counts every access a job decodes and wakes SSE watchers
// once per notify stride. The daemon's opener (Server.execute) hangs it on
// every stream it opens for the job.
// Drain decodes ahead of the simulation, so the count can lead the
// controller by up to two batches.
type countingStream struct {
	inner trace.Stream
	job   *Job
}

// Next implements trace.Stream.
func (c *countingStream) Next() (trace.Access, bool) {
	a, ok := c.inner.Next()
	if ok {
		if n := c.job.accesses.Add(1); n%progressNotifyStride == 0 {
			c.job.changed()
		}
	}
	return a, ok
}

// ReadBatch implements trace.BatchSource, so a job's trace still decodes a
// batch at a time: it counts the batch once and wakes watchers whenever the
// total crosses a notify stride.
func (c *countingStream) ReadBatch(dst []trace.Access) int {
	n := uint64(trace.FillBatch(c.inner, dst))
	if total := c.job.accesses.Add(n); total/progressNotifyStride != (total-n)/progressNotifyStride {
		c.job.changed()
	}
	return int(n)
}

// Err surfaces the inner stream's decode error, preserving the ErrStream
// contract for spooled trace uploads so mid-stream corruption fails the job
// instead of truncating it silently.
func (c *countingStream) Err() error {
	if es, ok := c.inner.(trace.ErrStream); ok {
		return es.Err()
	}
	return nil
}
