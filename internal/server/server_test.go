package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cache8t/internal/report"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// testTimeout bounds every wait in this file. It is a failure deadline, not
// a sleep: passing tests never block on it.
const testTimeout = 30 * time.Second

// gate interposes on every job's stream: the job blocks after `after`
// accesses until release is closed (or its context is cancelled), and
// entered is closed the first time any job reaches the gate. It is how the
// lifecycle tests hold a job mid-run without sleeping.
type gate struct {
	after   int
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate(after int) *gate {
	return &gate{after: after, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) wrap(ctx context.Context, j *Job, s trace.Stream) trace.Stream {
	return &gatedStream{inner: s, ctx: ctx, g: g}
}

type gatedStream struct {
	inner trace.Stream
	ctx   context.Context
	g     *gate
	n     int
}

func (s *gatedStream) Next() (trace.Access, bool) {
	if s.n == s.g.after {
		s.g.once.Do(func() { close(s.g.entered) })
		select {
		case <-s.g.release:
		case <-s.ctx.Done():
			return trace.Access{}, false
		}
	}
	s.n++
	return s.inner.Next()
}

func (s *gatedStream) Err() error {
	if es, ok := s.inner.(trace.ErrStream); ok {
		return es.Err()
	}
	return nil
}

// testServer wires a Server into an httptest listener.
type testServer struct {
	t   *testing.T
	srv *Server
	hs  *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	ts := &testServer{t: t, srv: srv, hs: hs}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		srv.Shutdown(ctx) // idempotent; tests that shut down already are no-ops
		hs.Close()
	})
	return ts
}

// submit POSTs a JSON spec and returns the HTTP status code with the decoded
// body (JobStatus on 202, APIError otherwise, both as raw bytes too).
func (ts *testServer) submit(body string) (int, []byte) {
	ts.t.Helper()
	resp, err := http.Post(ts.hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		ts.t.Fatal(err)
	}
	return resp.StatusCode, b
}

// submitJob submits and requires a 202, returning the job status.
func (ts *testServer) submitJob(body string) JobStatus {
	ts.t.Helper()
	code, b := ts.submit(body)
	if code != http.StatusAccepted {
		ts.t.Fatalf("submit returned %d: %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		ts.t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued || st.ConfigHash == "" {
		ts.t.Fatalf("bad 202 status: %+v", st)
	}
	return st
}

// waitTerminal follows the job's SSE stream until a terminal status frame —
// event-driven, no polling, no sleeps. Frames are told apart by event name:
// a recovered job's stream opens with an `event: recovered` frame whose
// data is already terminal when the job finished before the watcher
// subscribed, and that frame is not the status stream.
func (ts *testServer) waitTerminal(id string) JobStatus {
	ts.t.Helper()
	final, _, terminals := collectEvents(ts, id)
	if terminals == 0 {
		ts.t.Fatalf("event stream for %s ended without a terminal status frame", id)
	}
	return final
}

func (ts *testServer) get(path string) (int, []byte) {
	ts.t.Helper()
	resp, err := http.Get(ts.hs.URL + path)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func (ts *testServer) cancel(id string) (int, []byte) {
	ts.t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.hs.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		ts.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// TestSubmitPollResult is the happy path: submit → poll status → SSE wait →
// fetch result — and the tentpole's identity pin: the fetched artifact is
// byte-identical to an in-process serial run of the same spec.
func TestSubmitPollResult(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	const body = `{"controller":"wgrb","workload":"bwaves","n":20000}`
	st := ts.submitJob(body)

	code, b := ts.get("/v1/jobs/" + st.ID)
	if code != http.StatusOK {
		t.Fatalf("status poll: %d: %s", code, b)
	}

	final := ts.waitTerminal(st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Accesses != 20000 {
		t.Fatalf("progress counter = %d, want 20000", final.Accesses)
	}
	if final.RunMS <= 0 || final.SubmittedUnixMS == 0 {
		t.Fatalf("missing timings: %+v", final)
	}

	code, got := ts.get("/v1/jobs/" + st.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, got)
	}
	spec, err := DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	local, err := Execute(context.Background(), spec, spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, local) {
		t.Fatalf("daemon artifact differs from local serial run:\n%s\nvs\n%s", got, local)
	}
	art, err := report.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if art.ConfigHash != st.ConfigHash {
		t.Fatalf("submit-time config hash %s != artifact hash %s", st.ConfigHash, art.ConfigHash)
	}

	code, lst := ts.get("/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(lst), st.ID) {
		t.Fatalf("job list: %d: %s", code, lst)
	}
}

// TestShardedJobMatchesSerial pins end-to-end execution equivalence through
// the service: a set-sharded daemon job returns the exact bytes of a serial
// in-process run, for RMW and for WG, whose Set-Buffer crosses sets. Shards
// are execution knobs, not result knobs, so they stay out of the config
// hash.
func TestShardedJobMatchesSerial(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	for _, controller := range []string{"rmw", "wg"} {
		st := ts.submitJob(`{"controller":"` + controller + `","workload":"bwaves","n":20000,"shards":4}`)
		final := ts.waitTerminal(st.ID)
		if final.State != StateSucceeded {
			t.Fatalf("%s: sharded job ended %s: %s", controller, final.State, final.Error)
		}
		_, got := ts.get("/v1/jobs/" + st.ID + "/result")

		serial, err := DecodeSpec([]byte(`{"controller":"` + controller + `","workload":"bwaves","n":20000}`))
		if err != nil {
			t.Fatal(err)
		}
		local, err := Execute(context.Background(), serial, serial.Workload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, local) {
			t.Fatalf("%s: sharded daemon artifact differs from serial local artifact", controller)
		}
	}
}

// TestShardedJobPanicFailsJob pins panic containment through the sharded
// run's walks and accountant stage: a sharded job whose stream panics on the
// decoder goroutine ends failed with the engine's panicked error, and the
// daemon lives on to serve the next job. WG's Set-Buffer crosses sets, so
// its accountant stage runs beside the walks.
func TestShardedJobPanicFailsJob(t *testing.T) {
	for _, controller := range []string{"rmw", "wg"} {
		t.Run(controller, func(t *testing.T) {
			var armed atomic.Bool
			armed.Store(true)
			ts := newTestServer(t, Config{Workers: 1, testWrapStream: func(_ context.Context, _ *Job, s trace.Stream) trace.Stream {
				if !armed.CompareAndSwap(true, false) {
					return s
				}
				var served int
				return trace.Func(func() (trace.Access, bool) {
					if served == 5000 {
						panic("source failed")
					}
					served++
					return s.Next()
				})
			}})
			body := `{"controller":"` + controller + `","workload":"mcf","n":20000,"seed":1,"shards":2}`
			first := ts.waitTerminal(ts.submitJob(body).ID)
			if first.State != StateFailed || !strings.Contains(first.Error, "panicked") || !strings.Contains(first.Error, "source failed") {
				t.Fatalf("panicking job ended %s: %q, want failed with the engine's panicked error", first.State, first.Error)
			}
			if second := ts.waitTerminal(ts.submitJob(body).ID); second.State != StateSucceeded {
				t.Fatalf("job after the panic ended %s: %s", second.State, second.Error)
			}
		})
	}
}

// TestTraceUpload exercises the multipart path: the trace bytes are spooled,
// the source is content-addressed, and the result matches a local replay of
// the same bytes. The trace spans many decode batches and one progress
// stride, and the finished job counts exactly its accesses.
func TestTraceUpload(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, SpoolDir: t.TempDir()})

	const n = progressNotifyStride + 4000
	prof, err := workload.ProfileByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(prof, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if _, err := trace.WriteAll(&enc, trace.FromSlice(accs), 0); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc.Bytes())
	wantSource := "trace:sha256:" + hex.EncodeToString(sum[:])

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	pw, _ := mw.CreateFormField("spec")
	fmt.Fprint(pw, `{"controller":"wgrb"}`)
	fw, _ := mw.CreateFormFile("trace", "upload.c8tt")
	fw.Write(enc.Bytes())
	mw.Close()

	resp, err := http.Post(ts.hs.URL+"/v1/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart submit: %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Source != wantSource {
		t.Fatalf("source = %q, want %q", st.Source, wantSource)
	}
	if st.BytesIngested != int64(enc.Len()) {
		t.Fatalf("bytes ingested = %d, want %d", st.BytesIngested, enc.Len())
	}

	final := ts.waitTerminal(st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("trace job ended %s: %s", final.State, final.Error)
	}
	if final.Accesses != n {
		t.Fatalf("trace job replayed %d accesses, want %d", final.Accesses, n)
	}
	_, got := ts.get("/v1/jobs/" + st.ID + "/result")

	spec, err := DecodeSpec([]byte(`{"controller":"wgrb"}`))
	if err != nil {
		t.Fatal(err)
	}
	local, err := Execute(context.Background(), spec, wantSource, func() (trace.Stream, error) {
		return trace.NewAnyReader(bytes.NewReader(enc.Bytes()))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, local) {
		t.Fatal("trace-job artifact differs from local replay of the same bytes")
	}
}

// TestCancelMidRun holds a job at the gate, cancels it over the API, and
// requires the cancelled terminal state; the result endpoint then reports
// the conflict.
func TestCancelMidRun(t *testing.T) {
	g := newGate(100)
	ts := newTestServer(t, Config{Workers: 1, testWrapStream: g.wrap})
	st := ts.submitJob(`{"controller":"wgrb","workload":"bwaves","n":1000000}`)

	<-g.entered // the job is mid-run, blocked at the gate

	code, b := ts.get("/v1/jobs/" + st.ID + "/result")
	if code != http.StatusAccepted {
		t.Fatalf("result of a running job: %d: %s", code, b)
	}

	if code, b := ts.cancel(st.ID); code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, b)
	}
	final := ts.waitTerminal(st.ID)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}

	code, b = ts.get("/v1/jobs/" + st.ID + "/result")
	if code != http.StatusConflict {
		t.Fatalf("result of a cancelled job: %d: %s", code, b)
	}
	// Cancelling again is idempotent.
	if code, _ := ts.cancel(st.ID); code != http.StatusOK {
		t.Fatalf("second cancel: %d", code)
	}
}

// TestQueueFull pins the 429 backpressure contract with Workers:1 and a
// one-deep queue: one job held running at the gate, one queued, the third
// refused. Cancelling the queued job frees its slot without a worker.
func TestQueueFull(t *testing.T) {
	g := newGate(10)
	ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, testWrapStream: g.wrap})
	const body = `{"controller":"wgrb","workload":"bwaves","n":100000}`

	running := ts.submitJob(body)
	<-g.entered // worker is occupied; the queue is empty again

	queued := ts.submitJob(body)

	code, b := ts.submit(body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d: %s", code, b)
	}
	var ae struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &ae); err != nil || !strings.Contains(ae.Error, "queue full") {
		t.Fatalf("429 body = %s", b)
	}

	// A queued job cancels immediately — no worker ever touches it.
	if code, _ := ts.cancel(queued.ID); code != http.StatusOK {
		t.Fatalf("cancel queued: %d", code)
	}
	if final := ts.waitTerminal(queued.ID); final.State != StateCancelled {
		t.Fatalf("queued job ended %s, want cancelled", final.State)
	}

	close(g.release)
	if final := ts.waitTerminal(running.ID); final.State != StateSucceeded {
		t.Fatalf("running job ended %s: %s", final.State, final.Error)
	}
}

// TestOversizedBody pins the 413 limit.
func TestOversizedBody(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 128})
	code, b := ts.submit(`{"controller":"wgrb","workload":"bwaves","n":1000,"cache":{"policy":"` + strings.Repeat("x", 4096) + `"}}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d: %s", code, b)
	}
	if !strings.Contains(string(b), "128-byte limit") {
		t.Fatalf("413 body should name the limit: %s", b)
	}
}

// TestOversizedSpec pins the 1 MiB spec cap for both submission forms: a
// plain JSON body and a multipart "spec" part over the cap are rejected with
// an explicit 413, not buffered in memory or truncated into a confusing
// JSON decode 400.
func TestOversizedSpec(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	big := `{"controller":"wgrb","workload":"bwaves","n":1000,"cache":{"policy":"` +
		strings.Repeat("x", maxSpecBytes) + `"}}`

	code, b := ts.submit(big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON spec: %d: %s", code, b)
	}
	if !strings.Contains(string(b), "1 MiB") {
		t.Fatalf("413 body should name the spec limit: %s", b)
	}

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	pw, _ := mw.CreateFormField("spec")
	io.WriteString(pw, big)
	mw.Close()
	resp, err := http.Post(ts.hs.URL+"/v1/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized multipart spec: %d: %s", resp.StatusCode, rb)
	}
	if !strings.Contains(string(rb), "1 MiB") {
		t.Fatalf("413 body should name the spec limit: %s", rb)
	}
}

// TestSubmitRace hammers concurrent submissions against a tiny queue while
// listing jobs throughout — a regression test for the queue-full unwind
// race, where a rejected submission truncated a concurrent submission's id
// off the order slice, leaving a dangling id that panicked GET /v1/jobs.
func TestSubmitRace(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, QueueDepth: 1})
	const body = `{"controller":"rmw","workload":"bwaves","n":2000}`

	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(ts.hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("submit during storm: %d: %s", resp.StatusCode, b)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	list := func() {
		t.Helper()
		resp, err := http.Get(ts.hs.URL + "/v1/jobs")
		if err != nil {
			t.Fatalf("list during submit storm: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list during submit storm: %d", resp.StatusCode)
		}
	}
	for {
		list()
		select {
		case <-done:
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			list()
			return
		default:
		}
	}
}

// TestMalformedSpec pins the 400 contract: field-level errors for invalid
// specs, a plain error for unparseable bodies.
func TestMalformedSpec(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})

	code, b := ts.submit(`{"controller":"bogus","workload":"bwaves","n":-5,"shards":-1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d: %s", code, b)
	}
	var ae APIError
	if err := json.Unmarshal(b, &ae); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range ae.Fields {
		got[f.Field] = true
	}
	for _, want := range []string{"controller", "n", "shards"} {
		if !got[want] {
			t.Errorf("400 response missing field error for %q: %s", want, b)
		}
	}

	for _, body := range []string{`{not json`, `{"controller":"wgrb","bogus_field":1}`} {
		if code, b := ts.submit(body); code != http.StatusBadRequest {
			t.Errorf("body %q: %d: %s", body, code, b)
		}
	}

	if code, b := ts.get("/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d: %s", code, b)
	}
}

// TestGracefulDrain pins the clean half of shutdown: a running job is
// allowed to finish, Shutdown returns nil, and new submissions get 503.
func TestGracefulDrain(t *testing.T) {
	g := newGate(10)
	ts := newTestServer(t, Config{Workers: 1, testWrapStream: g.wrap})
	st := ts.submitJob(`{"controller":"wgrb","workload":"bwaves","n":5000}`)
	<-g.entered

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ts.srv.Shutdown(ctx) }()
	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("drain returned %v, want nil", err)
	}

	if final := ts.waitTerminal(st.ID); final.State != StateSucceeded {
		t.Fatalf("drained job ended %s: %s", final.State, final.Error)
	}
	if code, b := ts.submit(`{"controller":"wgrb","workload":"bwaves","n":10}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: %d: %s", code, b)
	}
	if code, b := ts.get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(string(b), "draining") {
		t.Fatalf("readyz after drain: %d: %s", code, b)
	}
}

// TestDrainDeadlineKills pins the other half: an expired drain deadline
// cancels in-flight jobs instead of waiting for them.
func TestDrainDeadlineKills(t *testing.T) {
	g := newGate(10)
	ts := newTestServer(t, Config{Workers: 1, testWrapStream: g.wrap})
	st := ts.submitJob(`{"controller":"wgrb","workload":"bwaves","n":1000000}`)
	<-g.entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired deadline: the kill path, with no waiting
	if err := ts.srv.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	if final := ts.waitTerminal(st.ID); final.State != StateCancelled {
		t.Fatalf("killed job ended %s, want cancelled", final.State)
	}
}

// TestHealthAndMetrics pins the probe endpoints and the metric names the
// issue requires the exposition to carry.
func TestHealthAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, Version: "v-test"})
	st := ts.submitJob(`{"controller":"wgrb","workload":"bwaves","n":5000}`)
	if final := ts.waitTerminal(st.ID); final.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	code, b := ts.get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Schema  int    `json:"schema"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != "v-test" || h.Schema != report.SchemaVersion {
		t.Fatalf("healthz body: %s", b)
	}

	if code, b := ts.get("/readyz"); code != http.StatusOK || !strings.Contains(string(b), "ready") {
		t.Fatalf("readyz: %d: %s", code, b)
	}

	_, m := ts.get("/metrics")
	text := string(m)
	for _, want := range []string{
		"sramd_queue_depth ",
		"sramd_queue_capacity ",
		"sramd_jobs_inflight ",
		`sramd_jobs_total{state="succeeded"} 1`,
		"sramd_accesses_total 5000",
		"sramd_bytes_ingested_total ",
		"sramd_accesses_per_second ",
		`sramd_job_seconds_count{controller="wgrb"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobTimeout pins the per-job deadline: a gated job with a tiny timeout
// fails with a timeout error instead of hanging. The gate releases on the
// engine's deadline context, so no real time is wasted beyond the timeout
// itself.
func TestJobTimeout(t *testing.T) {
	g := newGate(10)
	ts := newTestServer(t, Config{Workers: 1, JobTimeout: 10 * time.Millisecond, testWrapStream: g.wrap})
	st := ts.submitJob(`{"controller":"wgrb","workload":"bwaves","n":1000000}`)
	<-g.entered
	final := ts.waitTerminal(st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "timeout") {
		t.Fatalf("timed-out job ended %s: %q", final.State, final.Error)
	}
}

// TestHierarchyJobIdentity is the hierarchy acceptance contract: a hierarchy
// spec submitted to the daemon returns an artifact byte-identical to an
// in-process serial Execute of the same spec, with both levels' ledgers and
// the merged traffic metrics inside.
func TestHierarchyJobIdentity(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	body := `{"controller":"wg","workload":"bwaves","n":20000,"hierarchy":true,"l2":{"controller":"ts","cache":{"size_kb":512}}}`
	st := ts.submitJob(body)
	if fin := ts.waitTerminal(st.ID); fin.State != StateSucceeded {
		t.Fatalf("hierarchy job ended %s: %q", fin.State, fin.Error)
	}
	code, blob := ts.get("/v1/jobs/" + st.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, blob)
	}

	spec, err := DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(false); err != nil {
		t.Fatal(err)
	}
	want, err := Execute(context.Background(), spec, spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatal("daemon hierarchy artifact differs from in-process Execute")
	}

	art, err := report.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Controllers) != 2 || art.Controllers[0].Controller != "L1:WG" || art.Controllers[1].Controller != "L2:TS" {
		t.Fatalf("unexpected ledgers: %+v", art.Controllers)
	}
	for _, m := range []string{"l1_miss_rate", "l2_miss_rate", "refills", "writebacks", "premature_wbs", "l2_visible", "l2_visible_per_request"} {
		if _, ok := art.Metrics[m]; !ok {
			t.Errorf("artifact missing metric %q", m)
		}
	}
	if art.Config["hierarchy"] != "true" || art.Config["l2_controller"] != "ts" {
		t.Errorf("hierarchy config keys missing: %v", art.Config)
	}
	if art.Metrics["l2_visible"] != art.Metrics["refills"]+art.Metrics["writebacks"]+art.Metrics["premature_wbs"] {
		t.Errorf("l2_visible %v is not the event-stream total", art.Metrics["l2_visible"])
	}
	if art.Metrics["premature_wbs"] == 0 {
		t.Error("WG L1 reported zero premature write-backs")
	}
}

// TestHierarchySpecRejections pins the hierarchy-specific validation: l2
// without hierarchy, sharded hierarchy jobs, and bogus L2 fields all fail
// with named field errors.
func TestHierarchySpecRejections(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ body, field string }{
		{`{"controller":"rmw","workload":"bwaves","n":100,"l2":{"controller":"rmw"}}`, "l2"},
		{`{"controller":"rmw","workload":"bwaves","n":100,"hierarchy":true,"shards":4}`, "shards"},
		{`{"controller":"rmw","workload":"bwaves","n":100,"hierarchy":true,"l2":{"controller":"bogus"}}`, "l2.controller"},
		{`{"controller":"rmw","workload":"bwaves","n":100,"hierarchy":true,"l2":{"cache":{"ways":3}}}`, "l2.cache"},
	} {
		code, b := ts.submit(tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: got %d: %s", tc.body, code, b)
		}
		var ae APIError
		if err := json.Unmarshal(b, &ae); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range ae.Fields {
			if f.Field == tc.field {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no error on field %q: %+v", tc.body, tc.field, ae.Fields)
		}
	}
}
