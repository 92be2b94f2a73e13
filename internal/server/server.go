// Package server turns the simulation stack into a long-running service:
// an HTTP API that accepts experiment specs and trace uploads, enqueues
// them on a bounded job queue whose workers run each job as a one-job
// engine.Map (timeout and panic containment), and exposes the full async
// lifecycle — submit, status, result, cancel, an SSE progress stream,
// health/readiness probes, and Prometheus metrics. cmd/sramd is the
// daemon around it; cmd/sramload drives it under load and verifies that a
// fetched artifact is byte-identical to an in-process serial run of the
// same spec (see Execute). DESIGN.md §10 documents the job state machine,
// the backpressure limits, and the SSE contract.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cache8t/internal/engine"
	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/trace"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers bounds concurrently executing jobs (<= 0: one per CPU).
	Workers int
	// QueueDepth bounds jobs waiting to run; a full queue rejects submissions
	// with 429 (<= 0: 64).
	QueueDepth int
	// MaxBodyBytes bounds a submission body, spec plus trace upload; larger
	// bodies are rejected with 413 (<= 0: 256 MiB).
	MaxBodyBytes int64
	// JobTimeout, when positive, bounds each job's run time through
	// engine.Map; an expired job fails with a timeout error.
	JobTimeout time.Duration
	// SpoolDir receives streamed trace uploads ("" = os.TempDir()). Uploads
	// are spooled to disk, never buffered in memory, and removed when their
	// job reaches a terminal state.
	SpoolDir string
	// Version is reported by /healthz ("" = report.GitSHA()).
	Version string
	// Cache, when set, memoizes job results by config hash: a submission
	// whose hash is already cached short-circuits the queue and finishes
	// succeeded with `cached: true`; concurrent identical jobs singleflight
	// through one execution. nil disables caching entirely. The
	// server does not own the cache — the caller closes it after Shutdown.
	Cache *rescache.Cache
	// JournalDir, when set, makes jobs durable: every state transition is
	// fsynced to an append-only journal there, a submission's record
	// carrying its spec, and New replays the journal — re-registering
	// terminal jobs and re-enqueueing unfinished ones — so the job table
	// survives a kill -9. It works with or without Cache: a recovered
	// succeeded job serves its artifact from the cache while the cache
	// holds it, and answers 410 once it does not.
	JournalDir string
	// CheckpointEvery, when positive and journaling is on, snapshots each
	// running job's full controller state every that many batches into one
	// sealed file, <JournalDir>/ckpt/<job-id>, removed once the job's
	// terminal record is durable; a recovered running job resumes from it
	// instead of re-simulating from access zero. Sharded and hierarchy jobs
	// take no checkpoints (see Checkpoint). DESIGN.md §12 documents the
	// blob format and the byte-identity guarantee.
	CheckpointEvery int
	// JournalRetain, when positive and journaling is on, is the terminal-job
	// retention window: on open, journal records of jobs that finished
	// (succeeded/failed/cancelled) and were submitted more than this long ago
	// are garbage-collected by the compaction pass, so restart forgets
	// ancient history instead of replaying it forever. Live jobs are never
	// aged out. 0 keeps terminal records until their journal is deleted.
	JournalRetain time.Duration

	// testWrapStream, when set (package tests only), interposes on every
	// job's stream after the progress counter — the hook tests use to gate a
	// job mid-run without sleeping.
	testWrapStream func(ctx context.Context, j *Job, s trace.Stream) trace.Stream
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.SpoolDir == "" {
		c.SpoolDir = os.TempDir()
	}
	if c.Version == "" {
		c.Version = report.GitSHA()
	}
	return c
}

// Server is the simulation-as-a-service core: job store, bounded queue,
// worker pool, and HTTP handlers. Create with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg Config
	// Version is the build identifier /healthz reports.
	Version string

	met     *serverMetrics
	cache   *rescache.Cache
	journal *Journal
	ckptDir string // <JournalDir>/ckpt; "" without a journal
	queue   chan *Job

	baseCtx    context.Context
	baseCancel context.CancelFunc
	accepting  atomic.Bool
	stopOnce   sync.Once
	stop       chan struct{}
	workers    sync.WaitGroup
	jobWG      sync.WaitGroup

	jobs *Table[*Job]
	// mu orders a submission's registration and enqueue against Shutdown.
	mu sync.Mutex
}

// New builds a Server, replays the job journal when one is configured, and
// starts the worker pool. Recovery removes every checkpoint file but those
// of the jobs it re-enqueues.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		Version: cfg.Version,
		met:     newServerMetrics(),
		cache:   cfg.Cache,
		queue:   make(chan *Job, cfg.QueueDepth),
		stop:    make(chan struct{}),
		jobs:    NewTable[*Job]("j-"),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	var pending []*Job
	if cfg.JournalDir != "" {
		s.ckptDir = filepath.Join(cfg.JournalDir, "ckpt")
		if err := os.MkdirAll(s.ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
		journal, recs, err := openJournal(cfg.JournalDir, cfg.JournalRetain, time.Now())
		if err != nil {
			return nil, err
		}
		s.journal = journal
		pending = s.recoverJobs(recs)
		if err := sweepCheckpoints(s.ckptDir, pending); err != nil {
			journal.Close()
			return nil, err
		}
	}

	s.accepting.Store(true)
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	// Re-enqueue unfinished recovered jobs in journal (submission) order.
	// Done from a goroutine so recovery never deadlocks on a queue smaller
	// than the backlog — workers are live and drain it.
	if len(pending) > 0 {
		go func() {
			for _, j := range pending {
				select {
				case s.queue <- j:
				case <-s.stop:
					return
				}
			}
		}()
	}
	return s, nil
}

// recoverJobs rebuilds the job table from the compacted journal: terminal
// jobs are re-registered as-is (artifact refetched lazily from the cache),
// queued and running jobs are returned for re-enqueueing, and unfinished
// jobs whose record carries no spec (an older build's) or whose spooled
// trace did not survive the crash fail with an explicit error rather than
// vanishing. Runs before the worker pool starts.
func (s *Server) recoverJobs(recs []Record) []*Job {
	var pending []*Job
	for _, rec := range recs {
		spec, specErr := DecodeSpec(rec.Spec)
		submitted := time.Now()
		if rec.UnixMS != 0 {
			submitted = time.UnixMilli(rec.UnixMS)
		}
		j := newJob(s.baseCtx, rec.Job, spec, rec.Source, rec.SpecKey, submitted)
		j.tracePath = rec.TracePath
		j.bytesIngested = rec.TraceBytes
		s.met.recovered.Add(1)

		switch {
		case rec.State.Terminal():
			j.cached.Store(rec.Cached)
			j.accesses.Store(rec.Accesses)
			j.Recover(rec.State, rec.Error)
		case specErr != nil || (rec.TracePath != "" && !fileExists(rec.TracePath)):
			msg := "cannot recover job: spooled trace no longer exists"
			if specErr != nil {
				msg = "cannot recover job: spec missing from its journal record"
			}
			j.Recover(StateFailed, msg)
			s.journalState(j, StateFailed, msg)
		default:
			// Unfinished job with its inputs intact: back to the queue. A job
			// that was running re-runs, resuming from its latest checkpoint
			// when one survives (see execute).
			j.Recover(rec.State, "")
			s.jobWG.Add(1)
			pending = append(pending, j)
		}
		s.jobs.Recover(rec.Job, j)
	}
	return pending
}

// sweepCheckpoints removes every file in dir but the checkpoints of the
// jobs in keep: those of terminal or forgotten jobs, and the temp files of
// writes a crash cut short.
func sweepCheckpoints(dir string, keep []*Job) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	live := map[string]bool{}
	for _, j := range keep {
		live[j.ID] = true
	}
	for _, e := range ents {
		if !live[e.Name()] {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Shutdown drains the server: new submissions are refused immediately,
// queued and in-flight jobs run to completion, and the call returns once
// everything is terminal. If ctx expires first, every remaining job is
// cancelled, the drain completes with those jobs in state "cancelled", and
// ctx's error is returned. Always stops the worker pool; safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.accepting.Store(false)
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		<-drained
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.workers.Wait()
	if s.journal != nil {
		s.journal.Close()
	}
	return err
}

// journalSubmit makes an accepted job durable: its queued record, which
// carries the spec recovery rebuilds the job from, is fsynced. Runtime
// journal errors are deliberately swallowed — the job still runs this
// process; durability degrades, service does not.
func (s *Server) journalSubmit(j *Job) {
	if s.journal == nil {
		return
	}
	// A validated spec always marshals; a record without one would only
	// fail the job loudly at recovery.
	spec, _ := json.Marshal(j.Spec)
	s.journal.AppendRecord(Record{
		Job:        j.ID,
		State:      StateQueued,
		SpecKey:    j.ConfigHash,
		Spec:       spec,
		Source:     j.Source,
		TracePath:  j.tracePath,
		TraceBytes: j.bytesIngested,
		UnixMS:     time.Now().UnixMilli(),
	})
}

// journalState fsyncs one state transition for a journaled job; the error
// says whether the record is durable.
func (s *Server) journalState(j *Job, state State, errText string) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.AppendRecord(Record{
		Job:      j.ID,
		State:    state,
		Accesses: j.accesses.Load(),
		Error:    errText,
		Cached:   state.Terminal() && j.cached.Load(),
	})
}

// worker executes queued jobs until the server stops.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
		case <-s.stop:
			return
		}
	}
}

// runJob drives one job as a one-job engine.Map, which gives it the job
// timeout and panic containment: start, execute, classify the outcome,
// account metrics.
func (s *Server) runJob(j *Job) {
	if !j.Start(time.Now()) {
		return // cancelled while queued; finishJob already ran
	}
	s.journalState(j, StateRunning, "")
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	blobs, err := engine.Map(j.Context(), engine.Config{JobTimeout: s.cfg.JobTimeout}, []engine.Job[[]byte]{{
		Label: j.ID,
		Fn: func(ctx context.Context) ([]byte, error) {
			return s.executeBytes(ctx, j)
		},
	}})
	switch {
	case j.Context().Err() != nil:
		// DELETE or drain-kill. A cancelled stream can also surface as a
		// clean early EOF, so the job context outranks the outcome.
		s.finishJob(j, StateCancelled, "cancelled", nil)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, StateFailed, fmt.Sprintf("job timeout after %v", s.cfg.JobTimeout), nil)
	case err != nil:
		s.finishJob(j, StateFailed, err.Error(), nil)
	default:
		s.finishJob(j, StateSucceeded, "", blobs[0])
	}
}

// executeBytes produces the job's encoded canonical artifact, through the
// result cache when one is configured. Do covers the race the submit-time
// check cannot: identical jobs already in flight when this one was
// enqueued. A leader computes (and populates both tiers); a follower
// shares the leader's bytes and is marked cached — byte-identity between
// the two is exactly the determinism contract the identity tests pin.
// Do also re-checks the tiers, catching a twin that finished while this
// job sat queued.
func (s *Server) executeBytes(ctx context.Context, j *Job) ([]byte, error) {
	if s.cache == nil {
		return s.executeEncoded(ctx, j)
	}
	blob, cached, err := s.cache.Do(ctx, j.ConfigHash, func() ([]byte, error) {
		return s.executeEncoded(ctx, j)
	})
	if cached {
		j.cached.Store(true)
	}
	return blob, err
}

// executeEncoded runs the job and encodes its artifact to the canonical
// bytes every caller (HTTP result, cache blob) serves verbatim.
func (s *Server) executeEncoded(ctx context.Context, j *Job) ([]byte, error) {
	art, err := s.execute(ctx, j)
	if err != nil {
		return nil, err
	}
	return report.Encode(art)
}

// execute runs the job's spec. Its opener opens the job's source and hangs
// the progress counter on the stream. On a journaled server the run
// checkpoints into the sealed file <JournalDir>/ckpt/<job-id> — job ids
// survive restarts, so the file does too — and a recovered job resumes
// from it; a file that fails its sha256 re-check resumes nothing, so the
// job runs from access zero. A failed write keeps the previous checkpoint
// and the job runs on. The run path decides which specs checkpoint.
// execute runs on a worker goroutine inside the engine's containment.
func (s *Server) execute(ctx context.Context, j *Job) (*report.Artifact, error) {
	src := specSource(j.Spec, nil)
	if j.tracePath != "" {
		f, err := os.Open(j.tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = func() (trace.Stream, error) { return trace.NewAnyReader(f) }
	}
	open := func() (trace.Stream, error) {
		st, err := src()
		if err != nil {
			return nil, err
		}
		st = &countingStream{inner: st, job: j}
		if s.cfg.testWrapStream != nil {
			st = s.cfg.testWrapStream(ctx, j, st)
		}
		return st, nil
	}
	var ck Checkpoint
	if s.journal != nil && s.cfg.CheckpointEvery > 0 {
		path := filepath.Join(s.ckptDir, j.ID)
		ck.Every = s.cfg.CheckpointEvery
		ck.Sink = func(blob []byte, _ uint64) error {
			if rescache.WriteSealed(path, blob) == nil {
				s.met.ckptWritten.Add(1)
			}
			return nil
		}
		if j.IsRecovered() {
			ck.Resume, _ = rescache.ReadSealed(path)
		}
	}
	art, resumed, err := run(ctx, j.Spec, j.Source, open, ck)
	if resumed {
		s.met.ckptRestored.Add(1)
	}
	return art, err
}

// finishJob applies the terminal transition once: journal record, metrics
// and spool cleanup first, then the terminal state itself, then queue
// accounting. A client that sees the job finished — SSE frame, status or
// result — therefore also sees it counted and its upload gone. The job's
// checkpoint goes only once its terminal record is durable: until then a
// restart re-runs the job, and may resume from it.
func (s *Server) finishJob(j *Job, state State, errText string, artifact []byte) {
	if !j.Finish(time.Now(), state, errText, artifact, func() {
		if s.journalState(j, state, errText) == nil && s.ckptDir != "" {
			os.Remove(filepath.Join(s.ckptDir, j.ID))
		}
		st := j.Status()
		s.met.observe(j.Spec.Controller, st.RunMS/1e3, st.Accesses, state)
		if j.tracePath != "" {
			os.Remove(j.tracePath)
		}
	}) {
		return
	}
	s.jobs.Retire(j.ID)
	s.jobWG.Done()
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// APIError is the JSON error envelope every non-2xx response of the job
// server and the coordinator carries.
type APIError struct {
	Error  string       `json:"error"`
	State  State        `json:"state,omitempty"`
	Fields []FieldError `json:"fields,omitempty"`
}

// WriteJSON writes v as indented JSON with the status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteResult serves a succeeded entry's result: the bytes it holds, else
// the result cache's under key (a recovered entry holds none), else 410
// with gone as the error. 410, not 404 or 500: the entry did succeed, its
// bytes are gone, and resubmitting recomputes them.
func WriteResult(w http.ResponseWriter, l *Lifecycle, cache *rescache.Cache, key, gone string) {
	blob := l.Result()
	if blob == nil && cache != nil {
		blob, _, _ = cache.Get(key)
	}
	if blob == nil {
		WriteJSON(w, http.StatusGone, APIError{Error: gone, State: StateSucceeded})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

// handleSubmit accepts a job: a JSON spec body for workload jobs, or a
// multipart body with a "spec" part and a "trace" part whose bytes are
// streamed straight to the spool file (sniffed later by trace.NewAnyReader —
// gzip, binary C8TT, and text all work). Responses: 202 with the job status,
// 400 on a malformed or invalid spec (field-level errors), 413 when the body
// exceeds MaxBodyBytes or the spec alone exceeds maxSpecBytes, 429 when the
// queue is full, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.accepting.Load() {
		s.reject(w, "", http.StatusServiceUnavailable, errDraining)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	spec, source, tracePath, traceBytes, err := s.readSubmission(r)
	if err != nil {
		var maxErr *http.MaxBytesError
		var specErr *SpecError
		switch {
		case errors.As(err, &maxErr):
			s.reject(w, tracePath, http.StatusRequestEntityTooLarge,
				APIError{Error: fmt.Sprintf("body exceeds the %d-byte limit", maxErr.Limit)})
		case errors.Is(err, errSpecTooLarge):
			s.reject(w, tracePath, http.StatusRequestEntityTooLarge, APIError{Error: err.Error()})
		case errors.As(err, &specErr):
			s.reject(w, tracePath, http.StatusBadRequest, APIError{Error: "invalid spec", Fields: specErr.Fields})
		default:
			s.reject(w, tracePath, http.StatusBadRequest, APIError{Error: err.Error()})
		}
		return
	}

	hash, err := report.Hash(ConfigMap(spec, source))
	if err != nil {
		s.reject(w, tracePath, http.StatusInternalServerError, APIError{Error: err.Error()})
		return
	}

	// Submit-time cache check: a hit never touches the queue. The job is
	// registered (so status/result/list work as for any job) and finished
	// succeeded in one stroke, with the stored canonical bytes as its
	// artifact and `cached: true` as provenance. The 202 response already
	// carries the terminal status. Misses are not counted here — the job may
	// still dedup against an in-flight twin; executeBytes classifies it.
	var blob []byte
	hit := false
	if s.cache != nil {
		blob, _, hit = s.cache.Get(hash)
	}

	s.mu.Lock()
	if !s.accepting.Load() {
		s.mu.Unlock()
		s.reject(w, tracePath, http.StatusServiceUnavailable, errDraining)
		return
	}
	j := newJob(s.baseCtx, s.jobs.NextID(), spec, source, hash, time.Now())
	j.tracePath = tracePath
	j.bytesIngested = traceBytes
	j.cached.Store(hit)
	// jobWG must be incremented before a worker can possibly finish the job.
	s.jobWG.Add(1)
	// The 202 reports a miss as accepted: queued. Snapshot it now, since a
	// worker may start the job the moment it is enqueued.
	accepted := j.Status()
	// The enqueue stays under s.mu — with a default arm it cannot block — so
	// a miss is registered if and only if it was enqueued; there is no unwind
	// window for a concurrent submission to interleave with.
	if !hit {
		select {
		case s.queue <- j:
		default:
			s.mu.Unlock()
			s.jobWG.Done()
			s.reject(w, tracePath, http.StatusTooManyRequests,
				APIError{Error: fmt.Sprintf("job queue full (%d queued); retry later", cap(s.queue))})
			return
		}
	}
	s.jobs.Put(j.ID, j)
	s.mu.Unlock()
	s.met.submitted.Add(1)
	s.met.bytesIn.Add(traceBytes)
	s.journalSubmit(j)
	if hit {
		s.finishJob(j, StateSucceeded, "", blob)
		accepted = j.Status()
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	WriteJSON(w, http.StatusAccepted, accepted)
}

// reject refuses a submission: it counts it, removes any spooled trace,
// and answers with the error.
func (s *Server) reject(w http.ResponseWriter, tracePath string, code int, e APIError) {
	s.met.rejected.Add(1)
	if tracePath != "" {
		os.Remove(tracePath)
	}
	WriteJSON(w, code, e)
}

// errDraining answers a submission that arrives while the server drains.
var errDraining = APIError{Error: "server is draining; not accepting jobs"}

// maxSpecBytes bounds a JSON job spec, whether it arrives as a plain body or
// as the multipart "spec" part. Traces may be huge; specs never are, and the
// spec is the only submission data read into memory.
const maxSpecBytes = 1 << 20

// errSpecTooLarge marks a spec body over maxSpecBytes; handleSubmit maps it
// to 413.
var errSpecTooLarge = errors.New("spec exceeds the 1 MiB limit")

// readSpecBytes reads at most maxSpecBytes from r, failing explicitly —
// rather than truncating into a confusing JSON decode error — when more is
// present.
func readSpecBytes(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxSpecBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxSpecBytes {
		return nil, errSpecTooLarge
	}
	return b, nil
}

// readSubmission decodes the spec (and spools a trace upload, when present)
// from the request body, returning the validated spec and resolved source.
func (s *Server) readSubmission(r *http.Request) (spec JobSpec, source, tracePath string, traceBytes int64, err error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	sawSpec := false
	if ct == "multipart/form-data" {
		mr, merr := r.MultipartReader()
		if merr != nil {
			return spec, "", "", 0, fmt.Errorf("bad multipart body: %w", merr)
		}
		var traceSum string
		for {
			part, perr := mr.NextPart()
			if perr == io.EOF {
				break
			}
			if perr != nil {
				return spec, "", tracePath, traceBytes, fmt.Errorf("bad multipart body: %w", perr)
			}
			switch part.FormName() {
			case "spec":
				b, rerr := readSpecBytes(part)
				if rerr != nil {
					return spec, "", tracePath, traceBytes, rerr
				}
				if spec, err = DecodeSpec(b); err != nil {
					return spec, "", tracePath, traceBytes, err
				}
				sawSpec = true
			case "trace":
				if tracePath != "" {
					return spec, "", tracePath, traceBytes, fmt.Errorf("duplicate trace part")
				}
				f, cerr := os.CreateTemp(s.cfg.SpoolDir, "sramd-trace-*")
				if cerr != nil {
					return spec, "", "", 0, cerr
				}
				h := sha256.New()
				n, cpErr := io.Copy(io.MultiWriter(f, h), part)
				f.Close()
				tracePath, traceBytes = f.Name(), n
				if cpErr != nil {
					return spec, "", tracePath, traceBytes, cpErr
				}
				traceSum = hex.EncodeToString(h.Sum(nil))
			default:
				return spec, "", tracePath, traceBytes, fmt.Errorf("unknown multipart part %q (want spec, trace)", part.FormName())
			}
		}
		if !sawSpec {
			return spec, "", tracePath, traceBytes, fmt.Errorf(`multipart body missing the "spec" part`)
		}
		if tracePath != "" {
			source = "trace:sha256:" + traceSum
		}
	} else {
		b, rerr := readSpecBytes(r.Body)
		if rerr != nil {
			return spec, "", "", 0, rerr
		}
		if spec, err = DecodeSpec(b); err != nil {
			return spec, "", "", 0, err
		}
	}
	if err = spec.Validate(tracePath != ""); err != nil {
		return spec, "", tracePath, traceBytes, err
	}
	if source == "" {
		source = spec.Workload
	}
	return spec, source, tracePath, traceBytes, nil
}

// lookup resolves a job ID, writing the 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, APIError{Error: fmt.Sprintf("no job %q", r.PathValue("id"))})
	}
	return j
}

// handleList returns every job's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleStatus returns one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		WriteJSON(w, http.StatusOK, j.Status())
	}
}

// handleResult returns the canonical artifact of a succeeded job, 202 with
// the status while the job is still queued or running, and 409 for failed
// or cancelled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	st := j.Status()
	switch st.State {
	case StateSucceeded:
		WriteResult(w, j.Lifecycle, s.cache, j.ConfigHash,
			fmt.Sprintf("job %s succeeded but its artifact is no longer cached; resubmit to recompute", j.ID))
	case StateFailed, StateCancelled:
		WriteJSON(w, http.StatusConflict, APIError{
			Error: fmt.Sprintf("job %s is %s: %s", j.ID, st.State, st.Error), State: st.State})
	default:
		WriteJSON(w, http.StatusAccepted, st)
	}
}

// handleCancel cancels a job: queued jobs become terminal immediately,
// running jobs get their context cancelled (the simulation polls it per
// batch). Idempotent — cancelling a terminal job returns its status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if j.State() == StateQueued {
		s.finishJob(j, StateCancelled, "cancelled before start", nil)
	} else {
		j.cancel()
	}
	WriteJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's lifecycle as server-sent events: one
// "status" event with the JobStatus JSON immediately, another on every state
// change and progress stride, and a final one at the terminal state, after
// which the stream closes. The contract is documented in DESIGN.md §10.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusNotImplemented, APIError{Error: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// A re-subscribing watcher that lost its connection to a daemon restart
	// learns it is looking at a replayed job before the status stream
	// begins.
	if j.IsRecovered() {
		if b, err := json.Marshal(j.Status()); err == nil {
			fmt.Fprintf(w, "event: recovered\ndata: %s\n\n", b)
			fl.Flush()
		}
	}
	for {
		// Grab the notify channel before snapshotting: an update landing
		// between the two re-closes a channel we already hold, so nothing is
		// missed.
		ch := j.watch()
		st := j.Status()
		b, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: status\ndata: %s\n\n", b)
		fl.Flush()
		if st.State.Terminal() {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealthz reports liveness plus build identity: version (git SHA) and
// the artifact schema this daemon writes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"version": s.Version,
		"schema":  report.SchemaVersion,
	})
}

// handleReadyz is the routing probe: 200 while accepting, 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.accepting.Load() {
		w.Write([]byte("ready\n"))
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte("draining\n"))
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var snap *rescache.Snapshot
	if s.cache != nil {
		v := s.cache.Snapshot()
		snap = &v
	}
	var jstats *journalStats
	if s.journal != nil {
		jstats = &journalStats{Bytes: s.journal.Bytes()}
	}
	s.met.render(w, len(s.queue), cap(s.queue), s.accepting.Load(), snap, jstats)
}
