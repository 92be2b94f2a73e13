package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cache8t/internal/rescache"
)

// The journal makes a daemon's table survive a process kill: every state
// transition (queued → running → succeeded|failed|cancelled) of a job, or of
// a coordinator's sweep, is appended as one JSON line and fsynced before the
// transition is acknowledged. A submission's record carries the entry's
// normalized spec, so the journal alone rebuilds every unfinished entry and
// nothing in it depends on the result cache, which holds results only. On
// open the journal is replayed (longest valid prefix: a torn final write or
// corrupt tail drops silently, pinned by FuzzJournal) and compacted to one
// record per id through rescache's crash-safe write, so the file stays
// bounded by the table, not by churn.

// journalVersion is the record schema version; decodeJournal rejects
// records from other versions rather than guessing at their fields.
const journalVersion = 1

// journalFile is the journal's file name inside Config.JournalDir.
const journalFile = "journal.log"

// Record is one JSON line of the journal, for a job or a sweep. A
// submission writes a full record (spec and its key; for a job also its
// source and trace spool path); later transitions write only the id, the
// new state, and terminal provenance — replay merges them. AppendRecord
// stamps V.
type Record struct {
	V int `json:"v"`
	// Job is the entry's id ("j-…" for a job, "s-…" for a sweep).
	Job   string `json:"job"`
	State State  `json:"state"`
	// SpecKey is a job's config hash (a succeeded artifact is cached under
	// it) or a sweep's hash (its merged ledger under "ledger:<SpecKey>").
	SpecKey string `json:"spec_key,omitempty"`
	// Spec is the compact JSON of the entry's normalized spec, a JobSpec or
	// a coordinator's SweepSpec. A record written before it existed has
	// none: it recovers a terminal entry, and fails an unfinished one.
	Spec       json.RawMessage `json:"spec,omitempty"`
	Source     string          `json:"source,omitempty"`
	TracePath  string          `json:"trace_path,omitempty"`
	TraceBytes int64           `json:"trace_bytes,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	Accesses   uint64          `json:"accesses,omitempty"`
	Error      string          `json:"error,omitempty"`
	UnixMS     int64           `json:"unix_ms,omitempty"`
}

// valid reports whether a decoded record is structurally usable.
func (r Record) valid() bool {
	if r.V != journalVersion || r.Job == "" {
		return false
	}
	switch r.State {
	case StateQueued, StateRunning, StateSucceeded, StateFailed, StateCancelled:
		return true
	default:
		return false
	}
}

// decodeJournal parses data into the longest valid prefix of records. The
// first malformed line — torn tail from a kill mid-append, corruption,
// interleaved garbage — ends the replay; everything before it is kept,
// everything after is dropped. It never panics on any input (FuzzJournal).
func decodeJournal(data []byte) []Record {
	var out []Record
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			// No trailing newline: the final append was torn. Drop it.
			break
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || !rec.valid() {
			break
		}
		out = append(out, rec)
	}
	return out
}

// compactRecords merges a replayed record sequence into one record per id,
// in first-seen (submission) order. State transitions apply in record order
// with one guard: terminal states are sticky, so a late-arriving "queued"
// record (submit and first-run records can land out of order around a very
// fast job) can never resurrect a finished job.
func compactRecords(recs []Record) []Record {
	byJob := map[string]*Record{}
	var order []string
	for _, rec := range recs {
		cur := byJob[rec.Job]
		if cur == nil {
			r := rec
			byJob[rec.Job] = &r
			order = append(order, rec.Job)
			continue
		}
		if rec.SpecKey != "" {
			cur.SpecKey = rec.SpecKey
		}
		if len(rec.Spec) > 0 {
			cur.Spec = rec.Spec
		}
		if rec.Source != "" {
			cur.Source = rec.Source
		}
		if rec.TracePath != "" {
			cur.TracePath = rec.TracePath
		}
		if rec.TraceBytes != 0 {
			cur.TraceBytes = rec.TraceBytes
		}
		if rec.UnixMS != 0 && cur.UnixMS == 0 {
			cur.UnixMS = rec.UnixMS
		}
		if cur.State.Terminal() {
			continue
		}
		cur.State = rec.State
		cur.Cached = cur.Cached || rec.Cached
		if rec.Accesses != 0 {
			cur.Accesses = rec.Accesses
		}
		if rec.Error != "" {
			cur.Error = rec.Error
		}
	}
	out := make([]Record, 0, len(order))
	for _, id := range order {
		out = append(out, *byJob[id])
	}
	return out
}

// retainRecords applies the retention window to compacted records: terminal
// records older than the window go, everything else stays, submission order
// preserved.
func retainRecords(recs []Record, retain time.Duration, now time.Time) []Record {
	if retain <= 0 {
		return recs
	}
	cutoff := now.Add(-retain).UnixMilli()
	out := recs[:0]
	for _, r := range recs {
		if r.State.Terminal() && r.UnixMS != 0 && r.UnixMS < cutoff {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Journal is the crash-safe append log. Appends fsync before returning, so
// an acknowledged transition survives kill -9; Open compacts on every start.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	bytes int64
	// frozen (tests only) drops appends — the hook crash tests use to
	// simulate a kill between an in-memory transition and its record.
	frozen bool
}

// errFrozen is a frozen journal's append error: the record is not durable.
var errFrozen = errors.New("journal: frozen")

// OpenRecordJournal opens (creating if needed) the journal in dir, replays
// it, compacts it in place, and returns the merged records in submission
// order.
func OpenRecordJournal(dir string) (*Journal, []Record, error) {
	return openJournal(dir, 0, time.Time{})
}

// openJournal is OpenRecordJournal with a retention window (the job
// server's JournalRetain): terminal records whose first-seen submit time is
// older than retain before now are dropped during the open-time compaction
// — the GC point every journal passes through — so finished-job history
// stops accreting across daemon lifetimes. Live (queued/running) records
// are never aged out, whatever their age; neither are records that carry
// no timestamp. retain <= 0 keeps everything. Dropping a record forgets
// only the id: its artifact, if any, stays in the result cache until the
// disk tier evicts it on its own budget.
func openJournal(dir string, retain time.Duration, now time.Time) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs := retainRecords(compactRecords(decodeJournal(data)), retain, now)
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := rescache.WriteFileAtomic(path, buf); err != nil {
		return nil, nil, fmt.Errorf("journal: compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, bytes: int64(len(buf))}, recs, nil
}

// AppendRecord writes one record and fsyncs. The record is durable when
// AppendRecord returns nil.
func (j *Journal) AppendRecord(rec Record) error {
	rec.V = journalVersion
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.frozen {
		return errFrozen
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.bytes += int64(len(line))
	return nil
}

// Bytes returns the journal file's current size, for /metrics.
func (j *Journal) Bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// Close releases the append handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// freeze (tests only) makes every later AppendRecord fail with errFrozen,
// simulating a crash that loses transitions written after this point.
func (j *Journal) freeze() {
	j.mu.Lock()
	j.frozen = true
	j.mu.Unlock()
}
