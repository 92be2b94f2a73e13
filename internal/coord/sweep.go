package coord

import (
	"context"
	"sync/atomic"
	"time"

	"cache8t/internal/server"
)

// Sweep is one submitted matrix: the validated spec, its content address,
// and the lifecycle the HTTP handlers observe. The lifecycle is the job
// server's (queued → running → succeeded|failed|cancelled, terminal states
// sticky), so clients, the journal, and the docs speak one vocabulary. The
// merged ledger bytes are the lifecycle's result.
type Sweep struct {
	*server.Lifecycle
	ID string
	// Spec is the validated, normalized sweep as submitted.
	Spec SweepSpec
	// Hash is the sha256 of the canonical sweep spec — the sweep's identity
	// in the journal and the key of its merged ledger in the result cache.
	Hash string
	// PointCount is the matrix size.
	PointCount int

	// done counts points with a verified artifact; cached counts the subset
	// served from the result cache without a dispatch; retries counts
	// re-dispatched attempts. All live progress for status polling.
	done    atomic.Int64
	cached  atomic.Int64
	retries atomic.Int64
}

// newSweep builds a queued sweep submitted at now, whose context descends
// from parent.
func newSweep(parent context.Context, id string, spec SweepSpec, hash string, points int, now time.Time) *Sweep {
	return &Sweep{Lifecycle: server.NewLifecycle(parent, now), ID: id, Spec: spec, Hash: hash, PointCount: points}
}

// SweepStatus is the wire form of a sweep's observable state.
type SweepStatus struct {
	ID        string       `json:"id"`
	State     server.State `json:"state"`
	SweepHash string       `json:"sweep_hash"`
	Spec      SweepSpec    `json:"spec"`
	// Points is the matrix size; Done counts points with verified artifacts
	// so far; Cached is the subset served from the result cache without
	// dispatching; Retries counts re-dispatched attempts.
	Points  int `json:"points"`
	Done    int `json:"done"`
	Cached  int `json:"cached,omitempty"`
	Retries int `json:"retries,omitempty"`
	// Recovered marks a sweep replayed from the journal after a restart.
	Recovered       bool    `json:"recovered,omitempty"`
	Error           string  `json:"error,omitempty"`
	SubmittedUnixMS int64   `json:"submitted_unix_ms"`
	QueueMS         float64 `json:"queue_ms,omitempty"`
	RunMS           float64 `json:"run_ms,omitempty"`
}

// status snapshots the sweep for the API; now supplies the clock for the
// running-duration readout.
func (s *Sweep) status(now time.Time) SweepStatus {
	l := s.Snapshot(now)
	return SweepStatus{
		ID:              s.ID,
		State:           l.State,
		SweepHash:       s.Hash,
		Spec:            s.Spec,
		Points:          s.PointCount,
		Done:            int(s.done.Load()),
		Cached:          int(s.cached.Load()),
		Retries:         int(s.retries.Load()),
		Recovered:       l.Recovered,
		Error:           l.Error,
		SubmittedUnixMS: l.SubmittedUnixMS,
		QueueMS:         l.QueueMS,
		RunMS:           l.RunMS,
	}
}
