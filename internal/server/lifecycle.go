package server

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// State is an entry's position in the lifecycle state machine jobs and
// coordinator sweeps share:
//
//	queued → running → succeeded | failed | cancelled
//
// plus the queued → cancelled shortcut for entries cancelled before they
// start. Terminal states never change.
type State string

// Lifecycle states.
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

// Lifecycle is the mutable state a job and a sweep share: context, state,
// error text, result bytes, recovered flag, a notify channel, and the
// submit/start/finish stamps. Every stamp takes the caller's now, so the
// coordinator's clock, fake in tests, drives its timings.
type Lifecycle struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	finishing bool // the terminal transition is claimed (see Finish)
	errText   string
	result    []byte // canonical result bytes, set on success
	recovered bool   // replayed from the journal after a restart
	notifyCh  chan struct{}
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// NewLifecycle returns a queued lifecycle submitted at now, whose context
// descends from parent.
func NewLifecycle(parent context.Context, now time.Time) *Lifecycle {
	ctx, cancel := context.WithCancel(parent)
	return &Lifecycle{ctx: ctx, cancel: cancel, state: StateQueued, notifyCh: make(chan struct{}), submitted: now}
}

// Context is cancelled by the terminal transition, by a job's DELETE, or
// with its parent.
func (l *Lifecycle) Context() context.Context { return l.ctx }

// watch returns a channel closed on the next state or progress change.
// Grab the channel before reading status: updates between the two are then
// guaranteed to re-close a channel the caller already holds.
func (l *Lifecycle) watch() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notifyCh
}

// changed wakes every watcher.
func (l *Lifecycle) changed() {
	l.mu.Lock()
	close(l.notifyCh)
	l.notifyCh = make(chan struct{})
	l.mu.Unlock()
}

// Start moves queued → running at now. It refuses (returning false) when
// the entry was cancelled, or its terminal transition claimed, first.
func (l *Lifecycle) Start(now time.Time) bool {
	l.mu.Lock()
	if l.state != StateQueued || l.finishing {
		l.mu.Unlock()
		return false
	}
	l.state = StateRunning
	l.started = now
	l.mu.Unlock()
	l.changed()
	return true
}

// Finish applies the terminal transition once and reports whether this call
// won it, which lets a DELETE race the worker without double-counting. It
// claims the transition and stamps now, runs effects (journal record,
// metrics, stored result), and only then publishes the state and result,
// releases the context and wakes every watcher. Readers see the previous
// state until effects return, so none observes a terminal state whose
// effects are still pending.
func (l *Lifecycle) Finish(now time.Time, state State, errText string, result []byte, effects func()) bool {
	l.mu.Lock()
	if l.finishing || l.state.Terminal() {
		l.mu.Unlock()
		return false
	}
	l.finishing = true
	l.finished = now
	l.mu.Unlock()
	effects()
	l.mu.Lock()
	l.state, l.errText, l.result = state, errText, result
	l.mu.Unlock()
	l.cancel()
	l.changed()
	return true
}

// Recover flags an entry replayed from the journal, before any handler can
// reach it. A terminal state is reinstated as it was, with no effects run
// again (counters are per process) and the context released; an unfinished
// entry stays queued, to run again.
func (l *Lifecycle) Recover(state State, errText string) {
	l.mu.Lock()
	l.recovered = true
	if state.Terminal() {
		l.state, l.errText = state, errText
	}
	l.mu.Unlock()
	if state.Terminal() {
		l.cancel()
	}
}

// State returns the current lifecycle state.
func (l *Lifecycle) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Result returns the result bytes the entry holds (nil unless it succeeded
// in this process).
func (l *Lifecycle) Result() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.result
}

// IsRecovered reports whether the entry was replayed from the journal.
func (l *Lifecycle) IsRecovered() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovered
}

// Snapshot is the lifecycle's share of a status, read under one lock.
// QueueMS and RunMS split the entry's life between waiting and running; a
// running entry reports RunMS so far.
type Snapshot struct {
	State           State
	Error           string
	Recovered       bool
	SubmittedUnixMS int64
	QueueMS         float64
	RunMS           float64
}

// Snapshot reads the lifecycle; now ends a running entry's RunMS.
func (l *Lifecycle) Snapshot(now time.Time) Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{State: l.state, Error: l.errText, Recovered: l.recovered, SubmittedUnixMS: l.submitted.UnixMilli()}
	if !l.started.IsZero() {
		s.QueueMS = float64(l.started.Sub(l.submitted).Microseconds()) / 1e3
		end := l.finished
		if end.IsZero() {
			end = now
		}
		s.RunMS = float64(end.Sub(l.started).Microseconds()) / 1e3
	}
	return s
}

// MaxFinished bounds the finished entries a Table keeps. Past it the oldest
// finished entry leaves the table and answers 404, as one the journal
// dropped does after a restart, so the table does not grow with every job
// or sweep the process has run. A queued or running entry never leaves.
const MaxFinished = 1024

// entry is what a Table holds: a job or a sweep, both of which embed a
// Lifecycle.
type entry interface{ State() State }

// Table is a daemon's entry table: ids allocated under a prefix, lookup,
// submission order, and the MaxFinished bound. The job server keeps its
// jobs in one and the coordinator its sweeps.
type Table[E entry] struct {
	prefix string

	mu       sync.Mutex
	entries  map[string]E
	order    []string
	finished []string // finished ids, oldest first
	seq      uint64
}

// NewTable returns an empty table whose ids are prefix and a six-digit
// sequence number.
func NewTable[E entry](prefix string) *Table[E] {
	return &Table[E]{prefix: prefix, entries: map[string]E{}}
}

// NextID allocates the next id.
func (t *Table[E]) NextID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("%s%06d", t.prefix, t.seq)
}

// Put registers e under id, last in submission order.
func (t *Table[E]) Put(id string, e E) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[id] = e
	t.order = append(t.order, id)
}

// Recover registers an entry replayed from the journal: later ids continue
// past its sequence number, and a terminal entry counts as finished.
func (t *Table[E]) Recover(id string, e E) {
	t.mu.Lock()
	if rest, ok := strings.CutPrefix(id, t.prefix); ok {
		if n, err := strconv.ParseUint(rest, 10, 64); err == nil && n > t.seq {
			t.seq = n
		}
	}
	t.mu.Unlock()
	t.Put(id, e)
	if e.State().Terminal() {
		t.Retire(id)
	}
}

// Get looks an entry up by id.
func (t *Table[E]) Get(id string) (E, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	return e, ok
}

// List returns every entry in submission order.
func (t *Table[E]) List() []E {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]E, len(t.order))
	for i, id := range t.order {
		out[i] = t.entries[id]
	}
	return out
}

// Retire records a finished entry and drops the oldest finished entries
// past MaxFinished.
func (t *Table[E]) Retire(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finished = append(t.finished, id)
	for len(t.finished) > MaxFinished {
		old := t.finished[0]
		t.finished = t.finished[1:]
		delete(t.entries, old)
		t.order = slices.DeleteFunc(t.order, func(o string) bool { return o == old })
	}
}
