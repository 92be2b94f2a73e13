package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cache8t/internal/server"
)

// testTimeout bounds every wait in this package's tests. It is a failure
// deadline, not a sleep: passing tests never block on it.
const testTimeout = 30 * time.Second

// tinySweep is the standard fault-test matrix: one controller, one
// workload, the given seeds — len(seeds) points, each fast to simulate.
func tinySweep(seeds ...uint64) SweepSpec {
	return SweepSpec{
		Controllers: []string{"wgrb"},
		Workloads:   []string{"bwaves"},
		Seeds:       seeds,
		N:           400,
	}
}

// fakeWorker is a minimal in-process stand-in for a sramd worker speaking
// just enough of the job API for the dispatch loop: submit computes the
// artifact synchronously (via the same server.Execute the real daemon uses)
// and answers with a terminal job status. Fault hooks inject HTTP failure
// codes, hangs, connection resets, and artifact corruption at exactly the
// point the scenario needs.
type fakeWorker struct {
	t  *testing.T
	hs *httptest.Server

	mu      sync.Mutex
	submits int
	seq     int
	arts    map[string][]byte

	// onSubmit, when set, sees each submission (0-based) first and reports
	// whether it fully handled the response.
	onSubmit func(n int, w http.ResponseWriter, r *http.Request) bool
	// tamper, when set, substitutes the spec actually simulated — the
	// returned artifact is then internally consistent but carries the wrong
	// config hash, which is what a corrupted result looks like on the wire.
	tamper func(spec server.JobSpec) server.JobSpec
}

func newFakeWorker(t *testing.T) *fakeWorker {
	fw := &fakeWorker{t: t, arts: map[string][]byte{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", fw.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", fw.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", fw.handleResult)
	fw.hs = httptest.NewServer(mux)
	t.Cleanup(fw.hs.Close)
	return fw
}

func (fw *fakeWorker) url() string { return fw.hs.URL }

func (fw *fakeWorker) submitCount() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.submits
}

func (fw *fakeWorker) handleSubmit(w http.ResponseWriter, r *http.Request) {
	fw.mu.Lock()
	n := fw.submits
	fw.submits++
	hook := fw.onSubmit
	tamper := fw.tamper
	fw.mu.Unlock()
	if hook != nil && hook(n, w, r) {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	var spec server.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.APIError{Error: err.Error()})
		return
	}
	spec.Normalize()
	run := spec
	if tamper != nil {
		run = tamper(spec)
	}
	art, err := server.Execute(r.Context(), run, run.Workload, nil)
	if err != nil {
		server.WriteJSON(w, http.StatusInternalServerError, server.APIError{Error: err.Error()})
		return
	}
	fw.mu.Lock()
	fw.seq++
	id := fmt.Sprintf("j-%d", fw.seq)
	fw.arts[id] = art
	fw.mu.Unlock()
	server.WriteJSON(w, http.StatusAccepted, server.JobStatus{ID: id, State: server.StateSucceeded})
}

func (fw *fakeWorker) handleStatus(w http.ResponseWriter, r *http.Request) {
	fw.mu.Lock()
	_, ok := fw.arts[r.PathValue("id")]
	fw.mu.Unlock()
	if !ok {
		server.WriteJSON(w, http.StatusNotFound, server.APIError{Error: "no such job"})
		return
	}
	server.WriteJSON(w, http.StatusOK, server.JobStatus{ID: r.PathValue("id"), State: server.StateSucceeded})
}

func (fw *fakeWorker) handleResult(w http.ResponseWriter, r *http.Request) {
	fw.mu.Lock()
	art, ok := fw.arts[r.PathValue("id")]
	fw.mu.Unlock()
	if !ok {
		server.WriteJSON(w, http.StatusNotFound, server.APIError{Error: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(art)
}

// failCodes returns an onSubmit hook that answers the first len(codes)
// submissions with the given HTTP statuses, then behaves normally.
func failCodes(codes ...int) func(int, http.ResponseWriter, *http.Request) bool {
	return func(n int, w http.ResponseWriter, r *http.Request) bool {
		if n < len(codes) {
			server.WriteJSON(w, codes[n], server.APIError{Error: fmt.Sprintf("injected %d", codes[n])})
			return true
		}
		return false
	}
}

// hangForever blocks until the client gives up (attempt timeout). The body
// is drained first: the net/http server only watches for a client abort once
// the handler has consumed the request, so an undrained hang would outlive
// the cancelled dispatch and wedge the listener's Close.
func hangForever(n int, w http.ResponseWriter, r *http.Request) bool {
	io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
	return true
}

// resetConn kills the TCP connection without an HTTP response — a worker
// dying mid-job.
func resetConn(n int, w http.ResponseWriter, r *http.Request) bool {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("fake worker: response writer is not a hijacker")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
	return true
}

// harness wires a Coordinator into an httptest listener and, when the
// config carries a fakeClock, co-drives that clock while polling.
type harness struct {
	t   *testing.T
	c   *Coordinator
	hs  *httptest.Server
	clk *fakeClock
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	clk, _ := cfg.Clock.(*fakeClock)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return &harness{t: t, c: c, hs: hs, clk: clk}
}

// fastCfg is the fault-test baseline: fake clock, generous attempt deadline
// (so only the injected fault ever times an attempt out), tight backoff,
// breaker effectively disabled unless the scenario wants it.
func fastCfg(clk *fakeClock, workers ...string) Config {
	return Config{
		Workers:          workers,
		Clock:            clk,
		PointTimeout:     10 * time.Minute,
		PollInterval:     10 * time.Millisecond,
		PointAttempts:    5,
		BackoffBase:      50 * time.Millisecond,
		BackoffCap:       200 * time.Millisecond,
		BreakerThreshold: 100,
		BreakerCooldown:  time.Hour,
		JitterSeed:       3,
	}
}

func (h *harness) do(method, path string, body []byte) (int, []byte) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.hs.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, b
}

func (h *harness) submit(spec SweepSpec) SweepStatus {
	h.t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		h.t.Fatal(err)
	}
	code, body := h.do(http.MethodPost, "/v1/sweeps", b)
	if code != http.StatusAccepted {
		h.t.Fatalf("submit: status %d: %s", code, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

func (h *harness) status(id string) SweepStatus {
	h.t.Helper()
	code, body := h.do(http.MethodGet, "/v1/sweeps/"+id, nil)
	if code != http.StatusOK {
		h.t.Fatalf("status %s: %d: %s", id, code, body)
	}
	var st SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

func (h *harness) result(id string) []byte {
	h.t.Helper()
	code, body := h.do(http.MethodGet, "/v1/sweeps/"+id+"/result", nil)
	if code != http.StatusOK {
		h.t.Fatalf("result %s: %d: %s", id, code, body)
	}
	return body
}

// waitTerminal polls the sweep until terminal, advancing the fake clock by
// step each poll so backoffs, timeouts, and cooldowns elapse. The microsleep
// between polls is a scheduler yield, not a timing dependency.
func (h *harness) waitTerminal(id string, step time.Duration) SweepStatus {
	h.t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		st := h.status(id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("sweep %s stuck in state %s", id, st.State)
		}
		if h.clk != nil {
			h.clk.Advance(step)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// requireSerialLedger asserts got is byte-identical to the in-process
// serial run of spec — the sweep-level determinism contract.
func requireSerialLedger(t *testing.T, spec SweepSpec, got []byte) {
	t.Helper()
	want, err := ExecuteSerial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged ledger differs from serial in-process run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestDispatchRetriesFlakyWorker(t *testing.T) {
	// A worker answering 429, 503, 500 on its first three submissions must
	// cost three redispatches and zero correctness: the fourth attempt
	// lands and the ledger matches the serial run.
	fw := newFakeWorker(t)
	fw.onSubmit = failCodes(http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError)
	clk := newFakeClock()
	h := newHarness(t, fastCfg(clk, fw.url()))

	st := h.submit(tinySweep(1))
	st = h.waitTerminal(st.ID, 100*time.Millisecond)
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Retries != 3 {
		t.Fatalf("retries = %d, want 3 (one per injected failure)", st.Retries)
	}
	if got := h.c.met.redispatches.Load(); got != 3 {
		t.Fatalf("redispatches metric = %d, want 3", got)
	}
	if got := fw.submitCount(); got != 4 {
		t.Fatalf("worker saw %d submissions, want 4", got)
	}
	requireSerialLedger(t, tinySweep(1), h.result(st.ID))
}

func TestFinishedSweepLeavesNoTimer(t *testing.T) {
	// Every wait a dispatch makes — attempt deadlines, poll ticks, backoffs
	// after the flaky worker's refusals — stops its timer on return, so once
	// a sweep has finished no waiter is left on the clock.
	flaky, good := newFakeWorker(t), newFakeWorker(t)
	flaky.onSubmit = failCodes(http.StatusServiceUnavailable, http.StatusInternalServerError)
	clk := newFakeClock()
	cfg := fastCfg(clk, flaky.url(), good.url())
	cfg.DispatchParallel = 2
	h := newHarness(t, cfg)

	spec := tinySweep(1, 2, 3, 4)
	st := h.submit(spec)
	st = h.waitTerminal(st.ID, 20*time.Millisecond)
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (the refused submissions back off)", st.Retries)
	}
	if due := clk.pending(); len(due) != 0 {
		t.Fatalf("timers due in %v still pending on the clock after the sweep finished", due)
	}
	requireSerialLedger(t, spec, h.result(st.ID))
}

func TestCancelledSweepLeavesNoTimer(t *testing.T) {
	// A point whose job never finishes parks in the poll wait (the fake
	// clock never advances). Cancelling the sweep ends that wait, and the
	// poll tick's timer must go with it.
	w := newFakeWorker(t)
	w.onSubmit = func(n int, rw http.ResponseWriter, r *http.Request) bool {
		io.Copy(io.Discard, r.Body)
		server.WriteJSON(rw, http.StatusAccepted, server.JobStatus{ID: "j-never", State: server.StateQueued})
		return true
	}
	clk := newFakeClock()
	cfg := fastCfg(clk, w.url())
	h := newHarness(t, cfg)

	st := h.submit(tinySweep(1))
	waitUntil(t, "the dispatch to park in the poll wait", func() bool {
		due := clk.pending()
		return len(due) == 1 && due[0] == cfg.PollInterval
	})
	if code, body := h.do(http.MethodDelete, "/v1/sweeps/"+st.ID, nil); code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, body)
	}
	waitUntil(t, "the cancelled poll wait to stop its timer", func() bool { return len(clk.pending()) == 0 })
}

// waitUntil polls cond until it holds, failing the test after testTimeout.
// The microsleep between polls is a scheduler yield, not a timing
// dependency.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestDispatchTimesOutHangingWorker(t *testing.T) {
	// A worker that accepts the connection and never answers must cost one
	// attempt deadline, then the point lands on the healthy worker.
	hung := newFakeWorker(t)
	hung.onSubmit = hangForever
	good := newFakeWorker(t)
	clk := newFakeClock()
	cfg := fastCfg(clk, hung.url(), good.url())
	cfg.PointTimeout = time.Minute
	h := newHarness(t, cfg)

	st := h.submit(tinySweep(1))
	st = h.waitTerminal(st.ID, 10*time.Second)
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (the timed-out attempt)", st.Retries)
	}
	if got := good.submitCount(); got != 1 {
		t.Fatalf("healthy worker saw %d submissions, want 1", got)
	}
	requireSerialLedger(t, tinySweep(1), h.result(st.ID))
}

func TestDispatchSurvivesConnectionReset(t *testing.T) {
	// A worker dying mid-request (TCP reset, no HTTP response) is a retry,
	// not a sweep failure.
	dead := newFakeWorker(t)
	dead.onSubmit = resetConn
	good := newFakeWorker(t)
	clk := newFakeClock()
	h := newHarness(t, fastCfg(clk, dead.url(), good.url()))

	st := h.submit(tinySweep(1))
	st = h.waitTerminal(st.ID, 100*time.Millisecond)
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", st.Retries)
	}
	requireSerialLedger(t, tinySweep(1), h.result(st.ID))
}

func TestCorruptArtifactIsRedispatchedNeverMerged(t *testing.T) {
	// A worker returning a well-formed artifact for the WRONG simulation
	// (hash mismatch) must be treated as corrupt: the point re-dispatches
	// and the merged ledger carries only verified bytes.
	lying := newFakeWorker(t)
	lying.tamper = func(spec server.JobSpec) server.JobSpec {
		spec.Seed += 1000
		return spec
	}
	good := newFakeWorker(t)
	clk := newFakeClock()
	h := newHarness(t, fastCfg(clk, lying.url(), good.url()))

	st := h.submit(tinySweep(1))
	st = h.waitTerminal(st.ID, 100*time.Millisecond)
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if got := h.c.met.corruptArtifacts.Load(); got < 1 {
		t.Fatalf("corrupt-artifact metric = %d, want >= 1", got)
	}
	if st.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1", st.Retries)
	}
	requireSerialLedger(t, tinySweep(1), h.result(st.ID))
}

func TestBreakerOpensOnDeadWorker(t *testing.T) {
	// With a single always-failing worker and threshold 2, the breaker must
	// open after exactly 2 dispatches; the remaining attempts see "no
	// worker available" instead of hammering the corpse.
	dead := newFakeWorker(t)
	dead.onSubmit = failCodes(500, 500, 500, 500, 500, 500, 500, 500)
	clk := newFakeClock()
	cfg := fastCfg(clk, dead.url())
	cfg.BreakerThreshold = 2
	h := newHarness(t, cfg)

	st := h.submit(tinySweep(1))
	st = h.waitTerminal(st.ID, 20*time.Millisecond)
	if st.State != server.StateFailed {
		t.Fatalf("sweep %s: %s, want failed", st.ID, st.State)
	}
	if !strings.HasPrefix(st.Error, "point 0: ") || !strings.Contains(st.Error, "no worker available") {
		t.Fatalf("error %q does not name point 0 and worker exhaustion", st.Error)
	}
	if got := dead.submitCount(); got != 2 {
		t.Fatalf("dead worker saw %d submissions, want 2 (breaker threshold)", got)
	}
	if got := h.c.met.breakerOpens.Load(); got != 1 {
		t.Fatalf("breaker-opens metric = %d, want 1", got)
	}
	code, body := h.do(http.MethodGet, "/v1/workers", nil)
	if code != http.StatusOK {
		t.Fatalf("workers: %d", code)
	}
	var fleet struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Workers) != 1 || fleet.Workers[0].Breaker != "open" {
		t.Fatalf("workers listing = %s, want one open breaker", body)
	}
}

func TestBreakerHalfOpenProbeRecloses(t *testing.T) {
	// After the cooldown one probe is admitted; when the worker has
	// recovered, the probe succeeds and the breaker closes again.
	flaky := newFakeWorker(t)
	flaky.onSubmit = failCodes(500, 500)
	clk := newFakeClock()
	cfg := fastCfg(clk, flaky.url())
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Second
	cfg.PointAttempts = 8
	h := newHarness(t, cfg)

	st := h.submit(tinySweep(1))
	st = h.waitTerminal(st.ID, 300*time.Millisecond)
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if got := flaky.submitCount(); got != 3 {
		t.Fatalf("worker saw %d submissions, want 3 (2 failures + 1 successful probe)", got)
	}
	requireSerialLedger(t, tinySweep(1), h.result(st.ID))
}

func TestCancelSweepMidFlight(t *testing.T) {
	// DELETE on a running sweep cancels it: in-flight dispatches abort, the
	// state is terminal-sticky, and the result endpoint answers 409.
	hung := newFakeWorker(t)
	hung.onSubmit = hangForever
	clk := newFakeClock()
	h := newHarness(t, fastCfg(clk, hung.url()))

	st := h.submit(tinySweep(1))
	code, body := h.do(http.MethodDelete, "/v1/sweeps/"+st.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, body)
	}
	if got := h.waitTerminal(st.ID, 10*time.Millisecond); got.State != server.StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", got.State)
	}
	if code, _ := h.do(http.MethodGet, "/v1/sweeps/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of cancelled sweep: %d, want 409", code)
	}
	if code, _ := h.do(http.MethodDelete, "/v1/sweeps/"+st.ID, nil); code != http.StatusConflict {
		t.Fatalf("second cancel: %d, want 409", code)
	}
	if got := h.c.met.sweepsCancelled.Load(); got != 1 {
		t.Fatalf("cancelled metric = %d, want 1", got)
	}
}

func TestDrainKillCancelsSweep(t *testing.T) {
	// A drain past its deadline cancels the sweeps still dispatching, as
	// Shutdown promises: the sweep ends cancelled with no error, like a
	// DELETE, and is counted so.
	hung := newFakeWorker(t)
	hung.onSubmit = hangForever
	clk := newFakeClock()
	h := newHarness(t, fastCfg(clk, hung.url()))

	st := h.submit(tinySweep(1))
	waitUntil(t, "the point's submission to reach the worker", func() bool { return hung.submitCount() == 1 })
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.c.Shutdown(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown past its deadline = %v, want context.Canceled", err)
	}
	if got := h.status(st.ID); got.State != server.StateCancelled || got.Error != "" {
		t.Fatalf("sweep after a drain kill: %s (%q), want cancelled with no error", got.State, got.Error)
	}
	_, body := h.do(http.MethodGet, "/metrics", nil)
	if want := `coord_sweeps_total{state="cancelled"} 1`; !strings.Contains(string(body), want+"\n") {
		t.Fatalf("/metrics lacks %s:\n%s", want, body)
	}
}

// gatedBody is a request body whose first Read closes reading and then
// waits for release, so a test can act while a submission is still
// arriving.
type gatedBody struct {
	reading, release chan struct{}
	once             sync.Once
	r                io.Reader
}

func (g *gatedBody) Read(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.reading)
		<-g.release
	})
	return g.r.Read(p)
}

func TestSubmitDuringDrainRefused(t *testing.T) {
	// A submission whose body is still arriving when Shutdown runs must be
	// refused 503 once it arrives: Shutdown has already waited for every
	// accepted sweep and closed the journal, so a sweep accepted now would
	// never be journaled and a restarted coordinator would never hear of
	// it.
	c, err := New(Config{Clock: newFakeClock(), JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(tinySweep(1))
	body := &gatedBody{reading: make(chan struct{}), release: make(chan struct{}), r: bytes.NewReader(spec)}
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", body))
	}()
	<-body.reading
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(body.release)
	<-served
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit that arrived during the drain: status %d (%s), want 503", rec.Code, rec.Body)
	}
	list := httptest.NewRecorder()
	c.Handler().ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/v1/sweeps", nil))
	var got struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &got); err != nil || got.Count != 0 {
		t.Fatalf("sweep list after the refused submit: %s, want no sweeps", list.Body)
	}
}

func TestFullActiveTableRefusesSubmit(t *testing.T) {
	// maxActiveSweeps sweeps hung on a worker that never answers fill the
	// active-sweep table: the next submission is refused 429 and counted
	// rejected, and cancelling one of the hung sweeps frees its slot.
	hung := newFakeWorker(t)
	hung.onSubmit = hangForever
	clk := newFakeClock()
	h := newHarness(t, fastCfg(clk, hung.url()))

	ids := make([]string, maxActiveSweeps)
	for i := range ids {
		ids[i] = h.submit(tinySweep(uint64(i + 1))).ID
	}
	extra, _ := json.Marshal(tinySweep(99))
	if code, body := h.do(http.MethodPost, "/v1/sweeps", extra); code != http.StatusTooManyRequests {
		t.Fatalf("submit past %d active sweeps: status %d (%s), want 429", maxActiveSweeps, code, body)
	}
	_, body := h.do(http.MethodGet, "/metrics", nil)
	if want := `coord_sweeps_total{state="rejected"} 1`; !strings.Contains(string(body), want+"\n") {
		t.Fatalf("/metrics lacks %s:\n%s", want, body)
	}
	if code, body := h.do(http.MethodDelete, "/v1/sweeps/"+ids[0], nil); code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, body)
	}
	h.submit(tinySweep(99))

	// The hung sweeps never finish: end the drain at once rather than wait
	// out the cleanup's deadline.
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.c.Shutdown(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown past its deadline = %v, want context.Canceled", err)
	}
}

func TestSubmitRejections(t *testing.T) {
	good := newFakeWorker(t)
	clk := newFakeClock()
	h := newHarness(t, fastCfg(clk, good.url()))

	if code, _ := h.do(http.MethodPost, "/v1/sweeps", []byte(`{not json`)); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d, want 400", code)
	}
	if code, body := h.do(http.MethodPost, "/v1/sweeps", []byte(`{"n":100,"bogus":1}`)); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d (%s), want 400", code, body)
	}
	code, body := h.do(http.MethodPost, "/v1/sweeps", []byte(`{"n":100}`))
	if code != http.StatusBadRequest {
		t.Fatalf("empty axes: %d, want 400", code)
	}
	var e server.APIError
	if err := json.Unmarshal(body, &e); err != nil || len(e.Fields) == 0 {
		t.Fatalf("empty-axes rejection carries no field errors: %s", body)
	}

	h.c.accepting.Store(false)
	b, _ := json.Marshal(tinySweep(1))
	if code, _ := h.do(http.MethodPost, "/v1/sweeps", b); code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", code)
	}
	h.c.accepting.Store(true)
}

func TestMultiPointSweepFansOutAcrossFleet(t *testing.T) {
	// Several points, several workers, parallel dispatch: every worker gets
	// work and the merged ledger still matches the serial run exactly.
	w1, w2, w3 := newFakeWorker(t), newFakeWorker(t), newFakeWorker(t)
	clk := newFakeClock()
	cfg := fastCfg(clk, w1.url(), w2.url(), w3.url())
	cfg.DispatchParallel = 3
	h := newHarness(t, cfg)

	spec := tinySweep(1, 2, 3, 4, 5, 6)
	st := h.submit(spec)
	if st.Points != 6 {
		t.Fatalf("points = %d, want 6", st.Points)
	}
	st = h.waitTerminal(st.ID, 50*time.Millisecond)
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Done != 6 {
		t.Fatalf("done = %d, want 6", st.Done)
	}
	total := w1.submitCount() + w2.submitCount() + w3.submitCount()
	if total != 6 {
		t.Fatalf("fleet saw %d submissions, want 6", total)
	}
	for i, fw := range []*fakeWorker{w1, w2, w3} {
		if fw.submitCount() == 0 {
			t.Fatalf("worker %d saw no work despite round-robin over 6 points", i+1)
		}
	}
	requireSerialLedger(t, spec, h.result(st.ID))
}
