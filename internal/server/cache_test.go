package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cache8t/internal/rescache"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// newCache opens a rescache for a server test, closed after the server
// shuts down (t.Cleanup runs LIFO, so registering first closes last).
func newCache(t *testing.T, cfg rescache.Config) *rescache.Cache {
	t.Helper()
	rc, err := rescache.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// submitTerminal submits and decodes a 202 without insisting on the queued
// state — a cache hit is already terminal in the submit response.
func (ts *testServer) submitTerminal(body string) JobStatus {
	ts.t.Helper()
	code, b := ts.submit(body)
	if code != http.StatusAccepted {
		ts.t.Fatalf("submit returned %d: %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		ts.t.Fatal(err)
	}
	return st
}

// TestCacheHitIdentity is the tentpole property: hit ≡ miss ≡ in-process
// serial. The first submission computes; the second short-circuits the
// queue, finishes succeeded in its 202 response with cached=true, never
// touches the engine, and serves byte-identical artifact bytes.
func TestCacheHitIdentity(t *testing.T) {
	rc := newCache(t, rescache.Config{Dir: t.TempDir()})
	var executions atomic.Int32
	cfg := Config{Workers: 2, Cache: rc}
	cfg.testWrapStream = func(ctx context.Context, j *Job, s trace.Stream) trace.Stream {
		executions.Add(1)
		return s
	}
	ts := newTestServer(t, cfg)
	const body = `{"controller":"wgrb","workload":"bwaves","n":20000}`

	first := ts.submitJob(body)
	if final := ts.waitTerminal(first.ID); final.State != StateSucceeded || final.Cached {
		t.Fatalf("first run: state=%s cached=%v, want fresh success", final.State, final.Cached)
	}
	_, missBytes := ts.get("/v1/jobs/" + first.ID + "/result")

	second := ts.submitTerminal(body)
	if second.State != StateSucceeded || !second.Cached {
		t.Fatalf("repeat submission: state=%s cached=%v, want immediate cached success", second.State, second.Cached)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the first job's ID")
	}
	if second.ConfigHash != first.ConfigHash {
		t.Fatalf("config hash changed across identical submissions: %s vs %s", second.ConfigHash, first.ConfigHash)
	}
	code, hitBytes := ts.get("/v1/jobs/" + second.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("cached result fetch: %d: %s", code, hitBytes)
	}
	if !bytes.Equal(hitBytes, missBytes) {
		t.Fatalf("cache-hit artifact differs from the uncached run:\n%s\nvs\n%s", hitBytes, missBytes)
	}

	spec, err := DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	local, err := Execute(context.Background(), spec, spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hitBytes, local) {
		t.Fatal("cache-hit artifact differs from the in-process serial run")
	}

	if n := executions.Load(); n != 1 {
		t.Fatalf("engine executed %d times for two identical submissions, want 1", n)
	}
	_, metrics := ts.get("/metrics")
	for _, want := range []string{
		`rescache_hits_total{tier="memory"} 1`,
		"rescache_misses_total 1",
		fmt.Sprintf("rescache_bytes_served_total %d", len(missBytes)),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// metricValue returns the value of the /metrics sample named series (a bare
// name or name{labels}), failing the test when it is absent.
func metricValue(t *testing.T, body []byte, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s sample:\n%s", series, body)
	return 0
}

// TestCacheSingleflight holds the first of two concurrent identical jobs
// at the gate: the second must ride the first's computation (exactly one
// engine execution) and still succeed with the same bytes. Whether the
// follower joins the in-flight call (a dedup) or arrives after the leader
// stored its result (a memory hit) is up to the scheduler; the accounting
// contract (DESIGN §11) holds either way: each submission counts exactly
// one of hit, miss and dedup.
func TestCacheSingleflight(t *testing.T) {
	rc := newCache(t, rescache.Config{})
	g := newGate(500)
	var executions atomic.Int32
	cfg := Config{Workers: 2, Cache: rc}
	cfg.testWrapStream = func(ctx context.Context, j *Job, s trace.Stream) trace.Stream {
		executions.Add(1)
		return g.wrap(ctx, j, s)
	}
	ts := newTestServer(t, cfg)
	const body = `{"controller":"rmw","workload":"bwaves","n":20000}`

	leader := ts.submitJob(body)
	<-g.entered // the leader is mid-simulation; nothing is cached yet
	follower := ts.submitJob(body)
	close(g.release)

	lFinal := ts.waitTerminal(leader.ID)
	fFinal := ts.waitTerminal(follower.ID)
	if lFinal.State != StateSucceeded || fFinal.State != StateSucceeded {
		t.Fatalf("states: leader=%s follower=%s, want both succeeded", lFinal.State, fFinal.State)
	}
	if lFinal.Cached {
		t.Fatal("the computing leader was marked cached")
	}
	if !fFinal.Cached {
		t.Fatal("the deduplicated follower was not marked cached")
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("engine executed %d times for two concurrent identical jobs, want 1", n)
	}
	_, lb := ts.get("/v1/jobs/" + leader.ID + "/result")
	_, fb := ts.get("/v1/jobs/" + follower.ID + "/result")
	if !bytes.Equal(lb, fb) {
		t.Fatal("singleflighted jobs returned different artifact bytes")
	}
	_, metrics := ts.get("/metrics")
	misses := metricValue(t, metrics, "rescache_misses_total")
	shared := metricValue(t, metrics, "rescache_dedup_total") +
		metricValue(t, metrics, `rescache_hits_total{tier="memory"}`)
	if misses != 1 || shared != 1 {
		t.Fatalf("misses = %v, dedups + memory hits = %v; want 1 and 1", misses, shared)
	}
}

// TestCorruptBlobRecomputed flips a byte in the stored cache entry: the
// next identical submission must detect the damage, evict it, rerun the
// simulation, and serve correct bytes — never the corrupted ones.
func TestCorruptBlobRecomputed(t *testing.T) {
	dir := t.TempDir()
	// MemBytes 1: artifacts never fit the memory tier, so every repeat
	// exercises the disk read path under test.
	rc := newCache(t, rescache.Config{Dir: dir, MemBytes: 1})
	ts := newTestServer(t, Config{Workers: 1, Cache: rc})
	const body = `{"controller":"wgrb","workload":"bwaves","n":5000}`

	first := ts.submitJob(body)
	if final := ts.waitTerminal(first.ID); final.State != StateSucceeded {
		t.Fatalf("first run ended %s: %s", final.State, final.Error)
	}
	_, want := ts.get("/v1/jobs/" + first.ID + "/result")

	entryDir := filepath.Join(dir, "entries")
	entries, err := os.ReadDir(entryDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %d (err %v)", len(entries), err)
	}
	blobPath := filepath.Join(entryDir, entries[0].Name())
	raw, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(blobPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The repeat must NOT be served from cache: the read path rejects the
	// corrupt blob, so this is a normal queued job that recomputes.
	second := ts.submitTerminal(body)
	if second.Cached {
		t.Fatal("corrupted blob was served as a cache hit")
	}
	final := ts.waitTerminal(second.ID)
	if final.State != StateSucceeded {
		t.Fatalf("recompute ended %s: %s", final.State, final.Error)
	}
	if final.Cached {
		t.Fatal("job after corruption was marked cached; it must have recomputed")
	}
	_, got := ts.get("/v1/jobs/" + second.ID + "/result")
	if !bytes.Equal(got, want) {
		t.Fatal("recomputed artifact differs from the original")
	}
	if _, err := os.Stat(blobPath); err != nil {
		t.Fatalf("recomputed entry not re-stored: %v", err)
	}
	if fresh, err := os.ReadFile(blobPath); err != nil || bytes.Equal(fresh, raw) {
		t.Fatal("the disk tier still holds the corrupted bytes")
	}
	_, metrics := ts.get("/metrics")
	if !strings.Contains(string(metrics), "rescache_corrupt_total 1") {
		t.Fatalf("/metrics missing rescache_corrupt_total 1:\n%s", metrics)
	}
}

// traceBody builds a multipart submission with a generated trace upload.
func traceBody(t *testing.T, spec string, n int) (*bytes.Buffer, string) {
	t.Helper()
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
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	pw, _ := mw.CreateFormField("spec")
	fmt.Fprint(pw, spec)
	fw, _ := mw.CreateFormFile("trace", "upload.c8tt")
	fw.Write(enc.Bytes())
	mw.Close()
	return &body, mw.FormDataContentType()
}

// spoolFiles lists leftover spooled traces in dir.
func spoolFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "sramd-trace-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestSpoolCleanup pins the spool-leak fix across every terminal path a
// trace job can take: computed success, mid-run cancellation, and the
// cache-hit short-circuit (which never reaches a worker, so it must clean
// up at submit).
func TestSpoolCleanup(t *testing.T) {
	spool := t.TempDir()
	rc := newCache(t, rescache.Config{})
	g := newGate(500)
	var curGate atomic.Pointer[gate]
	curGate.Store(g)
	cfg := Config{Workers: 1, SpoolDir: spool, Cache: rc}
	cfg.testWrapStream = func(ctx context.Context, j *Job, s trace.Stream) trace.Stream {
		return curGate.Load().wrap(ctx, j, s)
	}
	ts := newTestServer(t, cfg)

	submitTrace := func(spec string, n int) JobStatus {
		t.Helper()
		body, ct := traceBody(t, spec, n)
		resp, err := http.Post(ts.hs.URL+"/v1/jobs", ct, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("trace submit: %d", resp.StatusCode)
		}
		return st
	}

	// Path 1: computed success.
	close(g.release) // first job runs through the gate unimpeded
	st := submitTrace(`{"controller":"wgrb"}`, 3000)
	if final := ts.waitTerminal(st.ID); final.State != StateSucceeded {
		t.Fatalf("trace job ended %s: %s", final.State, final.Error)
	}
	if left := spoolFiles(t, spool); len(left) != 0 {
		t.Fatalf("spool leak after success: %v", left)
	}

	// Path 2: cache hit at submit — same bytes, same spec, so the config
	// hash (which folds in the trace digest) matches and the job finishes
	// terminal in the submit response without ever reaching a worker.
	hit := submitTrace(`{"controller":"wgrb"}`, 3000)
	if hit.State != StateSucceeded || !hit.Cached {
		t.Fatalf("repeat trace submission: state=%s cached=%v, want cached success", hit.State, hit.Cached)
	}
	if left := spoolFiles(t, spool); len(left) != 0 {
		t.Fatalf("spool leak after cache hit: %v", left)
	}

	// Path 3: cancelled mid-run. A different spec so it misses the cache;
	// a fresh gate holds it mid-simulation.
	g2 := newGate(500)
	curGate.Store(g2)
	st = submitTrace(`{"controller":"rmw"}`, 3000)
	<-g2.entered
	if code, b := ts.cancel(st.ID); code != http.StatusOK {
		t.Fatalf("cancel: %d: %s", code, b)
	}
	if final := ts.waitTerminal(st.ID); final.State != StateCancelled {
		t.Fatalf("cancelled trace job ended %s", final.State)
	}
	if left := spoolFiles(t, spool); len(left) != 0 {
		t.Fatalf("spool leak after cancellation: %v", left)
	}
}

// TestFinishedJobsTableBounded submits far more jobs than the table keeps
// finished. The table stays bounded: the oldest finished jobs answer 404
// and leave the listing, while a running job and a queued one stay, and
// the newest hit still serves the cached bytes.
func TestFinishedJobsTableBounded(t *testing.T) {
	rc := newCache(t, rescache.Config{})
	g := newGate(100)
	ts := newTestServer(t, Config{Workers: 1, Cache: rc, testWrapStream: g.wrap})
	defer close(g.release)

	running := ts.submitJob(`{"controller":"rmw","workload":"mcf","n":20000,"seed":1}`)
	<-g.entered
	hit := `{"controller":"rmw","workload":"mcf","n":20000,"seed":2}`
	queued := ts.submitJob(hit) // waits behind the running job
	blob := []byte(`{"cached":"artifact"}`)
	rc.Put(queued.ConfigHash, blob)

	hits := make([]JobStatus, MaxFinished+50)
	for i := range hits {
		if hits[i] = ts.submitTerminal(hit); hits[i].State != StateSucceeded {
			t.Fatalf("submission %d: %s, want a succeeded cache hit", i, hits[i].State)
		}
	}
	for _, st := range []JobStatus{running, queued, hits[50], hits[len(hits)-1]} {
		if code, b := ts.get("/v1/jobs/" + st.ID); code != http.StatusOK {
			t.Fatalf("job %s: status %d (%s), want 200", st.ID, code, b)
		}
	}
	for _, st := range hits[:50] {
		if code, _ := ts.get("/v1/jobs/" + st.ID); code != http.StatusNotFound {
			t.Fatalf("job %s, among the oldest finished: status %d, want 404", st.ID, code)
		}
	}
	if code, b := ts.get("/v1/jobs/" + hits[len(hits)-1].ID + "/result"); code != http.StatusOK || !bytes.Equal(b, blob) {
		t.Fatalf("newest hit's result: %d %q, want 200 with the cached bytes", code, b)
	}
	code, b := ts.get("/v1/jobs")
	var list []JobStatus
	if err := json.Unmarshal(b, &list); code != http.StatusOK || err != nil {
		t.Fatalf("list: %d %v", code, err)
	}
	if len(list) != MaxFinished+2 {
		t.Fatalf("table lists %d jobs, want %d finished plus the running and the queued one", len(list), MaxFinished)
	}
}
