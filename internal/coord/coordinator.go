package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cache8t/internal/engine"
	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/server"
)

// maxResponseBytes bounds any single worker response body the coordinator
// will buffer (artifacts are a few KB; this is a containment limit).
const maxResponseBytes = 8 << 20

// maxSweepSpecBytes bounds a submitted sweep spec body.
const maxSweepSpecBytes = 1 << 20

// errCorrupt marks a fetched artifact that failed config-hash verification.
// Such a result is re-dispatched (the hash names the exact simulation the
// point requires, so a mismatch means the worker returned the wrong or
// damaged bytes) and never reaches the merge.
var errCorrupt = errors.New("artifact failed config-hash verification")

// Config parameterizes a Coordinator. Zero values get production defaults;
// tests inject a fake Clock and tight timeouts.
type Config struct {
	// Workers are base URLs of sramd workers registered at startup. More can
	// join later via POST /v1/workers.
	Workers []string
	// DispatchParallel caps concurrently in-flight point dispatches per
	// sweep (default 4).
	DispatchParallel int
	// MaxActiveSweeps caps concurrently non-terminal sweeps (default 8).
	MaxActiveSweeps int
	// PointTimeout bounds one dispatch attempt end to end — submit, poll,
	// fetch (default 2m).
	PointTimeout time.Duration
	// PollInterval spaces job-status polls within an attempt (default 25ms).
	PollInterval time.Duration
	// PointAttempts caps dispatch attempts per point before the sweep fails
	// (default 5).
	PointAttempts int
	// BackoffBase and BackoffCap shape the jittered exponential backoff
	// between attempts: base×2^n capped, then jittered into [d/2, d]
	// (defaults 100ms / 5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold consecutive failures open a worker's breaker for
	// BreakerCooldown (defaults 3 / 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval, when > 0, starts the active health prober: every
	// interval each worker's /healthz is probed (each probe bounded by one
	// interval) and the outcome feeds that worker's circuit breaker exactly
	// like a dispatch outcome. 0 (the default) disables active probing;
	// health then comes only from real dispatches.
	ProbeInterval time.Duration
	// SweepRate and SweepBurst configure the per-client submission token
	// bucket (rate <= 0 disables limiting; default burst 4).
	SweepRate  float64
	SweepBurst int
	// Cache is the result cache. Per-point artifacts are stored under their
	// config hash (shared with the workers' key scheme), merged ledgers
	// under "ledger:<hash>". It holds results only: nothing is lost with an
	// entry but the work of recomputing it.
	Cache *rescache.Cache
	// JournalDir, when set, makes the sweep table durable through the same
	// journal the job server uses; a sweep's queued record carries its
	// spec. It works with or without Cache.
	JournalDir string
	// Clock abstracts time; tests inject a fake (default wall clock).
	Clock Clock
	// HTTPClient performs worker requests (default a fresh client; per-call
	// deadlines come from PointTimeout, not a client timeout).
	HTTPClient *http.Client
	// JitterSeed seeds the backoff jitter RNG for reproducible tests
	// (default 1; jitter de-synchronizes concurrent retries either way).
	JitterSeed int64
	// Version is reported by /healthz.
	Version string
}

func (cfg Config) withDefaults() Config {
	if cfg.DispatchParallel <= 0 {
		cfg.DispatchParallel = 4
	}
	if cfg.MaxActiveSweeps <= 0 {
		cfg.MaxActiveSweeps = 8
	}
	if cfg.PointTimeout <= 0 {
		cfg.PointTimeout = 2 * time.Minute
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	if cfg.PointAttempts <= 0 {
		cfg.PointAttempts = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.SweepBurst <= 0 {
		cfg.SweepBurst = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	return cfg
}

// Coordinator owns the sweep table and the dispatch loop. All its state
// beyond the journal is in memory; workers hold no coordinator state at all.
type Coordinator struct {
	cfg   Config
	clk   Clock
	reg   *registry
	lim   *limiter
	httpc *http.Client
	cache *rescache.Cache

	journal *server.Journal
	met     coordMetrics

	rngMu sync.Mutex
	rng   *rand.Rand

	baseCtx    context.Context
	baseCancel context.CancelFunc
	accepting  atomic.Bool
	sweepWG    sync.WaitGroup
	proberWG   sync.WaitGroup

	sweeps *server.Table[*Sweep]
	mu     sync.Mutex
	active int // non-terminal sweeps
}

// New builds a Coordinator, registers cfg.Workers, and — when JournalDir is
// set — replays the sweep journal: terminal sweeps re-appear with their
// ledgers served from the result cache, non-terminal sweeps resume
// dispatching, with already-finished points found under their config
// hashes and never re-simulated.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		clk:        cfg.Clock,
		reg:        newRegistry(cfg.BreakerThreshold, cfg.BreakerCooldown),
		lim:        newLimiter(cfg.SweepRate, cfg.SweepBurst),
		httpc:      cfg.HTTPClient,
		cache:      cfg.Cache,
		rng:        rand.New(rand.NewSource(cfg.JitterSeed)),
		baseCtx:    ctx,
		baseCancel: cancel,
		sweeps:     server.NewTable[*Sweep]("s-"),
	}
	c.accepting.Store(true)
	for _, u := range cfg.Workers {
		if _, err := c.reg.add(u); err != nil {
			cancel()
			return nil, err
		}
	}
	if cfg.JournalDir != "" {
		j, recs, err := server.OpenRecordJournal(cfg.JournalDir)
		if err != nil {
			cancel()
			return nil, err
		}
		c.journal = j
		c.recover(recs)
	}
	if cfg.ProbeInterval > 0 {
		c.proberWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// recover rebuilds the sweep table from compacted journal records. Terminal
// sweeps are re-registered as-is (ledger served from the result cache);
// non-terminal sweeps are re-dispatched from the spec their record carries
// — per-point cache hits make the re-dispatch resume, not restart. A
// non-terminal sweep whose record carries no spec (an older build's) fails
// explicitly rather than vanishing.
func (c *Coordinator) recover(recs []server.Record) {
	now := c.clk.Now()
	for _, rec := range recs {
		spec, specErr := DecodeSweepSpec(rec.Spec)
		points := 0
		if specErr == nil {
			points = spec.Points()
		}
		s := newSweep(c.baseCtx, rec.Job, spec, rec.SpecKey, points, now)
		if rec.State == server.StateSucceeded {
			s.done.Store(int64(points))
		}
		s.Recover(rec.State, rec.Error)
		c.sweeps.Recover(s.ID, s)
		if rec.State.Terminal() {
			continue
		}
		c.met.sweepsRecovered.Add(1)
		c.mu.Lock()
		c.active++
		c.mu.Unlock()
		if specErr != nil {
			c.finishSweep(s, server.StateFailed, "sweep spec missing from its journal record; cannot resume", nil)
			continue
		}
		c.sweepWG.Add(1)
		go c.runSweep(s)
	}
}

// Shutdown drains: no new sweeps are accepted, in-flight sweeps run to
// completion. When ctx ends first, the remaining sweeps are cancelled and
// end cancelled, as a DELETE leaves them.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.accepting.Store(false)
	done := make(chan struct{})
	go func() {
		c.sweepWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		c.baseCancel()
		<-done
	}
	c.baseCancel()
	c.proberWG.Wait()
	if c.journal != nil {
		c.journal.Close()
	}
	return err
}

// journalSweep appends one sweep transition (no-op without a journal). The
// queued record carries the spec recovery re-dispatches from.
func (c *Coordinator) journalSweep(s *Sweep, state server.State, errText string) {
	if c.journal == nil {
		return
	}
	rec := server.Record{
		Job:      s.ID,
		State:    state,
		SpecKey:  s.Hash,
		Error:    errText,
		Accesses: uint64(s.done.Load()),
		UnixMS:   c.clk.Now().UnixMilli(),
	}
	if state == server.StateQueued {
		// A validated spec always marshals; a record without one would only
		// fail the sweep loudly at recovery.
		rec.Spec, _ = json.Marshal(s.Spec)
	}
	c.journal.AppendRecord(rec)
}

// finishSweep applies a terminal transition once, the way the job server
// finishes a job: the merged ledger is stored, the transition journaled and
// counted, and the active slot released before the terminal state is
// published. A client that reads the sweep finished therefore also sees it
// counted and its ledger stored, and a resubmit finds the slot free.
func (c *Coordinator) finishSweep(s *Sweep, state server.State, errText string, merged []byte) {
	if !s.Finish(c.clk.Now(), state, errText, merged, func() {
		if state == server.StateSucceeded && merged != nil && c.cache != nil {
			c.cache.Put("ledger:"+s.Hash, merged)
		}
		c.journalSweep(s, state, errText)
		switch state {
		case server.StateSucceeded:
			c.met.sweepsSucceeded.Add(1)
		case server.StateFailed:
			c.met.sweepsFailed.Add(1)
		case server.StateCancelled:
			c.met.sweepsCancelled.Add(1)
		}
		c.mu.Lock()
		c.active--
		c.mu.Unlock()
	}) {
		return
	}
	c.sweeps.Retire(s.ID)
}

// runSweep is one sweep's lifecycle: decompose, map the points over the
// fleet at the dispatch-parallel cap, take every verified artifact in point
// order, merge. Point order — never completion order — is what makes the
// merged ledger independent of scheduling.
func (c *Coordinator) runSweep(s *Sweep) {
	defer c.sweepWG.Done()
	if !s.Start(c.clk.Now()) {
		return
	}
	c.journalSweep(s, server.StateRunning, "")
	points, err := s.Spec.Decompose()
	if err != nil {
		c.finishSweep(s, server.StateFailed, err.Error(), nil)
		return
	}
	jobs := make([]engine.Job[[]byte], len(points))
	for i, p := range points {
		jobs[i] = engine.Job[[]byte]{
			Label: fmt.Sprintf("point %d", i),
			Fn:    func(context.Context) ([]byte, error) { return c.dispatchPoint(s, p) },
		}
	}
	arts, err := engine.Map(s.Context(), engine.Config{Workers: c.cfg.DispatchParallel}, jobs)
	var je *engine.JobError
	switch {
	case s.Context().Err() != nil:
		// A DELETE (whose handler already applied the terminal transition)
		// or a drain past its deadline.
		c.finishSweep(s, server.StateCancelled, "", nil)
		return
	case errors.As(err, &je):
		c.finishSweep(s, server.StateFailed, fmt.Sprintf("%s: %v", je.Label, je.Err), nil)
		return
	}
	merged, err := MergeLedger(s.Hash, arts)
	if err != nil {
		c.finishSweep(s, server.StateFailed, err.Error(), nil)
		return
	}
	c.finishSweep(s, server.StateSucceeded, "", merged)
}

// dispatchPoint produces one point's verified artifact: result-cache first,
// then up to PointAttempts dispatches across the fleet with jittered
// exponential backoff between attempts. Every failure mode — HTTP error
// status, timeout, connection reset, corrupt artifact — lands here as an
// error and is retried, preferentially on a different worker (round-robin
// plus the failing worker's breaker filling up).
func (c *Coordinator) dispatchPoint(s *Sweep, p Point) ([]byte, error) {
	if c.cache != nil {
		if blob, _, ok := c.cache.Get(p.ConfigHash); ok {
			if art, err := report.Decode(blob); err == nil && art.ConfigHash == p.ConfigHash {
				c.met.pointsCached.Add(1)
				s.cached.Add(1)
				s.done.Add(1)
				return blob, nil
			}
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.PointAttempts; attempt++ {
		if err := s.Context().Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.met.redispatches.Add(1)
			s.retries.Add(1)
			if err := c.backoffWait(s.Context(), attempt-1); err != nil {
				return nil, err
			}
		}
		w := c.reg.pick(c.clk.Now())
		if w == nil {
			lastErr = errors.New("no worker available (fleet empty or every breaker open)")
			continue
		}
		art, err := c.runOnWorker(s.Context(), w, p)
		if err == nil {
			w.succeeded.Add(1)
			w.brk.success()
			c.met.pointsSucceeded.Add(1)
			s.done.Add(1)
			if c.cache != nil {
				c.cache.Put(p.ConfigHash, art)
			}
			return art, nil
		}
		lastErr = err
		if errors.Is(err, errCorrupt) {
			c.met.corruptArtifacts.Add(1)
		}
		w.failed.Add(1)
		if w.brk.failure(c.clk.Now()) {
			c.met.breakerOpens.Add(1)
		}
	}
	return nil, fmt.Errorf("gave up after %d attempts: %w", c.cfg.PointAttempts, lastErr)
}

// backoffWait sleeps (on the coordinator's clock) for the nth backoff:
// base×2^n capped at BackoffCap, jittered into [d/2, d] so concurrent
// retries spread out instead of stampeding a recovering worker.
func (c *Coordinator) backoffWait(ctx context.Context, n int) error {
	d := c.cfg.BackoffBase << uint(n)
	if d <= 0 || d > c.cfg.BackoffCap {
		d = c.cfg.BackoffCap
	}
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d/2) + 1))
	c.rngMu.Unlock()
	return c.sleep(ctx, d/2+j)
}

// sleep waits d on the coordinator's clock, or until ctx ends, and stops
// its timer either way.
func (c *Coordinator) sleep(ctx context.Context, d time.Duration) error {
	fired, stop := c.clk.Timer(d)
	defer stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-fired:
		return nil
	}
}

// runOnWorker is one dispatch attempt end to end: submit the point's job,
// poll to terminal, fetch the artifact, verify its config hash. The whole
// attempt shares one PointTimeout deadline on the coordinator's clock.
func (c *Coordinator) runOnWorker(ctx context.Context, w *worker, p Point) ([]byte, error) {
	c.met.pointsDispatched.Add(1)
	w.dispatched.Add(1)
	deadline := c.clk.Now().Add(c.cfg.PointTimeout)

	specBody, err := json.Marshal(p.Spec)
	if err != nil {
		return nil, err
	}
	body, code, err := c.doBounded(ctx, http.MethodPost, w.url+"/v1/jobs", specBody, deadline)
	if err != nil {
		return nil, fmt.Errorf("submit to %s: %w", w.url, err)
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit to %s: status %d: %s", w.url, code, strings.TrimSpace(string(body)))
	}
	var js server.JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		return nil, fmt.Errorf("submit to %s: bad status body: %w", w.url, err)
	}
	for !js.State.Terminal() {
		if err := c.sleep(ctx, c.cfg.PollInterval); err != nil {
			return nil, err
		}
		if !c.clk.Now().Before(deadline) {
			return nil, fmt.Errorf("point timed out after %s on %s", c.cfg.PointTimeout, w.url)
		}
		body, code, err = c.doBounded(ctx, http.MethodGet, w.url+"/v1/jobs/"+js.ID, nil, deadline)
		if err != nil {
			return nil, fmt.Errorf("poll %s on %s: %w", js.ID, w.url, err)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("poll %s on %s: status %d: %s", js.ID, w.url, code, strings.TrimSpace(string(body)))
		}
		if err := json.Unmarshal(body, &js); err != nil {
			return nil, fmt.Errorf("poll %s on %s: bad status body: %w", js.ID, w.url, err)
		}
	}
	if js.State != server.StateSucceeded {
		return nil, fmt.Errorf("job %s on %s %s: %s", js.ID, w.url, js.State, js.Error)
	}
	body, code, err = c.doBounded(ctx, http.MethodGet, w.url+"/v1/jobs/"+js.ID+"/result", nil, deadline)
	if err != nil {
		return nil, fmt.Errorf("fetch %s on %s: %w", js.ID, w.url, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("fetch %s on %s: status %d: %s", js.ID, w.url, code, strings.TrimSpace(string(body)))
	}
	art, err := report.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %s on %s: %v", errCorrupt, js.ID, w.url, err)
	}
	if art.ConfigHash != p.ConfigHash {
		return nil, fmt.Errorf("%w: %s on %s: got %s want %s", errCorrupt, js.ID, w.url, art.ConfigHash, p.ConfigHash)
	}
	return body, nil
}

type httpResult struct {
	body []byte
	code int
	err  error
}

// doBounded performs one HTTP exchange bounded by the attempt deadline on
// the coordinator's clock: the request runs in a goroutine and this call
// selects on completion, the clock, and ctx. On timeout the request context
// is cancelled, so a hung worker costs the deadline, never a goroutine.
func (c *Coordinator) doBounded(ctx context.Context, method, url string, reqBody []byte, deadline time.Time) ([]byte, int, error) {
	remaining := deadline.Sub(c.clk.Now())
	if remaining <= 0 {
		return nil, 0, fmt.Errorf("attempt deadline exceeded")
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	expired, stop := c.clk.Timer(remaining)
	defer stop()
	ch := make(chan httpResult, 1)
	go func() {
		var rd io.Reader
		if reqBody != nil {
			rd = bytes.NewReader(reqBody)
		}
		req, err := http.NewRequestWithContext(rctx, method, url, rd)
		if err != nil {
			ch <- httpResult{err: err}
			return
		}
		if reqBody != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			ch <- httpResult{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
		if err != nil {
			ch <- httpResult{err: err}
			return
		}
		if len(b) > maxResponseBytes {
			ch <- httpResult{err: fmt.Errorf("response exceeds %d bytes", maxResponseBytes)}
			return
		}
		ch <- httpResult{body: b, code: resp.StatusCode}
	}()
	select {
	case r := <-ch:
		return r.body, r.code, r.err
	case <-expired:
		cancel()
		<-ch // the cancelled request returns promptly
		return nil, 0, fmt.Errorf("request timed out")
	case <-ctx.Done():
		cancel()
		<-ch
		return nil, 0, ctx.Err()
	}
}
