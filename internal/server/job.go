package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cache8t/internal/trace"
)

// State is a job's position in the lifecycle state machine:
//
//	queued → running → succeeded | failed | cancelled
//
// plus the queued → cancelled shortcut for jobs deleted before a worker
// picks them up. Terminal states never change.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// progressNotifyStride is how many decoded accesses pass between SSE
// progress wake-ups. Counting is per decoded batch (one atomic add);
// notification is throttled so a million-access job broadcasts dozens of
// events, not a million.
const progressNotifyStride = 1 << 16

// Job is one submitted simulation: the validated spec, the resolved input
// source, and the mutable lifecycle state the HTTP handlers observe.
type Job struct {
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

	// ctx cancels the job (DELETE, server drain-kill); cancel is its handle.
	ctx    context.Context
	cancel context.CancelFunc

	// accesses counts decoded accesses — live progress for status and SSE.
	accesses atomic.Uint64

	mu        sync.Mutex
	state     State
	finishing bool // the terminal transition is claimed (see claimFinish)
	errText   string
	artifact  []byte // canonical artifact bytes, set on success
	cached    bool   // artifact served from the result cache, not computed
	recovered bool   // job replayed from the journal after a restart
	notifyCh  chan struct{}
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// newJob builds a queued job whose context descends from parent.
func newJob(parent context.Context, id string, spec JobSpec, source, configHash string) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		ID:         id,
		Spec:       spec,
		Source:     source,
		ConfigHash: configHash,
		ctx:        ctx,
		cancel:     cancel,
		state:      StateQueued,
		notifyCh:   make(chan struct{}),
		submitted:  time.Now(),
	}
}

// watch returns a channel closed on the next state or progress change.
// Grab the channel before reading status: updates between the two are then
// guaranteed to re-close a channel the caller already holds.
func (j *Job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notifyCh
}

// changed wakes every watcher.
func (j *Job) changed() {
	j.mu.Lock()
	close(j.notifyCh)
	j.notifyCh = make(chan struct{})
	j.mu.Unlock()
}

// start moves queued → running. It refuses (returning false) when the job
// was cancelled while still in the queue.
func (j *Job) start() bool {
	j.mu.Lock()
	if j.state != StateQueued || j.finishing {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.changed()
	return true
}

// claimFinish reserves the job's terminal transition, reporting whether
// this call won it. Idempotence is what lets DELETE race the worker
// without double-counting metrics or WaitGroup releases. The claim stamps
// the finish time but publishes nothing: readers keep seeing the old state
// until publishFinish, so none can observe a terminal state whose side
// effects are still pending.
func (j *Job) claimFinish() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finishing || j.state.Terminal() {
		return false
	}
	j.finishing = true
	j.finished = time.Now()
	return true
}

// publishFinish sets the claimed terminal state and wakes every watcher.
func (j *Job) publishFinish(state State, errText string, artifact []byte) {
	j.mu.Lock()
	j.state = state
	j.errText = errText
	j.artifact = artifact
	j.mu.Unlock()
	j.cancel() // release the context either way
	j.changed()
}

// markCached flags the job as served from the result cache. The artifact
// bytes are byte-identical to a computed run — the identity tests pin that
// — so this is pure provenance, surfaced as `"cached": true` in status.
func (j *Job) markCached() {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
}

// markRecovered flags the job as replayed from the journal after a restart,
// surfaced as `"recovered": true` in status and as the SSE "recovered"
// event. Set during recovery, before the job is reachable from handlers.
func (j *Job) markRecovered() {
	j.mu.Lock()
	j.recovered = true
	j.mu.Unlock()
}

// IsRecovered reports whether the job was replayed from the journal.
func (j *Job) IsRecovered() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// Artifact returns the canonical artifact bytes (nil unless succeeded).
func (j *Job) Artifact() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.artifact
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
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
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:              j.ID,
		State:           j.state,
		Spec:            j.Spec,
		Source:          j.Source,
		ConfigHash:      j.ConfigHash,
		Accesses:        j.accesses.Load(),
		BytesIngested:   j.bytesIngested,
		Cached:          j.cached,
		Recovered:       j.recovered,
		Error:           j.errText,
		SubmittedUnixMS: j.submitted.UnixMilli(),
	}
	if !j.started.IsZero() {
		st.QueueMS = float64(j.started.Sub(j.submitted).Microseconds()) / 1e3
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.started).Microseconds()) / 1e3
	}
	return st
}

// countingStream counts every access a job decodes and wakes SSE watchers
// once per notify stride. It is the wrap RunSpec hangs on the job's stream.
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
