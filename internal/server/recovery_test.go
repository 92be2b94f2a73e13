package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cache8t/internal/rescache"
)

// openTestCache opens a disk-backed result cache under dir and schedules it
// to close after the servers using it have shut down (t.Cleanup is LIFO, so
// register the cache before the server).
func openTestCache(t *testing.T, dir string) *rescache.Cache {
	t.Helper()
	c, err := rescache.Open(rescache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// submitAccepted submits a spec and requires only a 202: on a journaled
// server the submit fsyncs between enqueue and response, so a fast job's
// 202 snapshot may already be past queued — unlike submitJob, this helper
// does not insist on the initial state.
func submitAccepted(ts *testServer, body string) JobStatus {
	ts.t.Helper()
	code, b := ts.submit(body)
	if code != http.StatusAccepted {
		ts.t.Fatalf("submit returned %d: %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		ts.t.Fatal(err)
	}
	if st.ID == "" || st.ConfigHash == "" {
		ts.t.Fatalf("bad 202 status: %+v", st)
	}
	return st
}

// collectEvents follows a job's SSE stream to the end and reports what a
// re-subscribing watcher observes: whether a "recovered" event preceded the
// status stream, the terminal status, and how many terminal status frames
// arrived (the reconnection contract demands exactly one). Only frames
// named `status` count as status.
func collectEvents(ts *testServer, id string) (final JobStatus, sawRecovered bool, terminalFrames int) {
	ts.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.hs.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		ts.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ts.t.Fatalf("events: %s", resp.Status)
	}
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			event = "" // a blank line ends the frame
			continue
		}
		if strings.HasPrefix(line, "event: ") {
			event = strings.TrimPrefix(line, "event: ")
			if event == "recovered" {
				sawRecovered = true
			}
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
			ts.t.Fatalf("bad SSE data line: %v", err)
		}
		if event == "status" && st.State.Terminal() {
			terminalFrames++
			final = st
		}
	}
	if err := sc.Err(); err != nil {
		ts.t.Fatalf("event stream read: %v", err)
	}
	return final, sawRecovered, terminalFrames
}

// TestRestartPreservesTerminalJobs is the baseline durability property: a
// daemon restart keeps finished jobs visible — same ids, same order, same
// states, same artifact bytes — with `recovered: true` provenance.
func TestRestartPreservesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	cdir := filepath.Join(dir, "cas")
	const body = `{"controller":"rmw","workload":"bwaves","n":2000}`

	cache1 := openTestCache(t, cdir)
	ts1 := newTestServer(t, Config{Workers: 1, Cache: cache1, JournalDir: jdir})
	stA := submitAccepted(ts1, body)
	if fin := ts1.waitTerminal(stA.ID); fin.State != StateSucceeded {
		t.Fatalf("job A ended %s: %s", fin.State, fin.Error)
	}
	// A repeat submission finishes from the cache — also journaled.
	code, b := ts1.submit(body)
	if code != http.StatusAccepted {
		t.Fatalf("repeat submit: %d: %s", code, b)
	}
	var stB JobStatus
	if err := json.Unmarshal(b, &stB); err != nil {
		t.Fatal(err)
	}
	if stB.State != StateSucceeded || !stB.Cached {
		t.Fatalf("repeat submit not served from cache: %+v", stB)
	}
	_, wantArtifact := ts1.get("/v1/jobs/" + stA.ID + "/result")

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := ts1.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.hs.Close()
	cache1.Close()

	cache2 := openTestCache(t, cdir)
	ts2 := newTestServer(t, Config{Workers: 1, Cache: cache2, JournalDir: jdir})

	code, lst := ts2.get("/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list after restart: %d: %s", code, lst)
	}
	var jobs []JobStatus
	if err := json.Unmarshal(lst, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != stA.ID || jobs[1].ID != stB.ID {
		t.Fatalf("job table after restart: %+v", jobs)
	}
	for _, j := range jobs {
		if j.State != StateSucceeded || !j.Recovered {
			t.Errorf("job %s after restart: state %s recovered %v", j.ID, j.State, j.Recovered)
		}
	}
	if jobs[0].Accesses != 2000 {
		t.Errorf("job A accesses after restart = %d, want 2000", jobs[0].Accesses)
	}
	if !jobs[1].Cached {
		t.Errorf("job B lost its cached provenance: %+v", jobs[1])
	}
	// The artifact is refetched from the CAS by config hash.
	code, got := ts2.get("/v1/jobs/" + stA.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("result after restart: %d: %s", code, got)
	}
	if !bytes.Equal(got, wantArtifact) {
		t.Fatal("artifact bytes changed across restart")
	}
	if code, m := ts2.get("/metrics"); code != http.StatusOK ||
		!strings.Contains(string(m), "sramd_recovered_jobs_total 2") {
		t.Fatalf("recovered-jobs metric missing:\n%s", m)
	}
}

// TestCrashRecoveryResumesFromCheckpoint is the tentpole end to end, inside
// the package: a job is killed mid-run (journal frozen to simulate the
// crash, so its terminal transition is lost), and the restarted server
// re-runs it from its latest checkpoint to an artifact byte-identical to an
// uninterrupted in-process run. It doubles as the SSE reconnection test: a
// watcher re-subscribing after the restart sees a "recovered" event and
// exactly one terminal status.
func TestCrashRecoveryResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	cdir := filepath.Join(dir, "cas")
	const body = `{"controller":"wgrb","workload":"bwaves","n":3000,"batch":64}`

	cache1 := openTestCache(t, cdir)
	g := newGate(1000)
	ts1 := newTestServer(t, Config{
		Workers: 1, Cache: cache1, JournalDir: jdir, CheckpointEvery: 1,
		testWrapStream: g.wrap,
	})
	st := submitAccepted(ts1, body)
	<-g.entered // mid-run: ~15 batches fed, each synchronously checkpointed

	// Crash: every transition after this point is lost to the journal. The
	// cancel tears the run down in-memory (its cancelled record is dropped),
	// so the journal's last word is "running" — exactly a kill -9's view.
	ts1.srv.journal.freeze()
	ts1.cancel(st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := ts1.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.hs.Close()
	cache1.Close()

	cache2 := openTestCache(t, cdir)
	ts2 := newTestServer(t, Config{Workers: 1, Cache: cache2, JournalDir: jdir, CheckpointEvery: 1})

	// The job survived the crash under its original id, re-ran, and
	// succeeded. The re-subscribed watcher sees the recovered marker and one
	// terminal event — no lost "succeeded", no duplicate terminal.
	final, sawRecovered, terminals := collectEvents(ts2, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("recovered job ended %s: %s", final.State, final.Error)
	}
	if !final.Recovered {
		t.Error("terminal status lost the recovered flag")
	}
	if !sawRecovered {
		t.Error("re-subscribed watcher saw no recovered event")
	}
	if terminals != 1 {
		t.Errorf("watcher saw %d terminal status frames, want exactly 1", terminals)
	}
	if final.Accesses != 3000 {
		t.Errorf("recovered run accesses = %d, want 3000", final.Accesses)
	}

	// Byte-identity through crash + resume: the artifact equals a straight
	// in-process run of the same spec.
	code, got := ts2.get("/v1/jobs/" + st.ID + "/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, got)
	}
	spec, err := DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(context.Background(), spec, spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered artifact differs from an uninterrupted run")
	}

	code, m := ts2.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"sramd_recovered_jobs_total 1",
		"sramd_checkpoints_restored_total 1",
		"sramd_journal_bytes",
	} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestRecoverySpecMissing pins the degraded path: a journaled unfinished job
// whose spec blob did not survive (CAS evicted or wiped) must fail with an
// explicit error, not vanish from the table or wedge the queue.
func TestRecoverySpecMissing(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	line := `{"v":1,"job":"j-000007","state":"running","spec_key":"deadbeef","source":"bwaves","unix_ms":5}` + "\n"
	if err := os.WriteFile(filepath.Join(jdir, journalFile), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t, filepath.Join(dir, "cas"))
	ts := newTestServer(t, Config{Workers: 1, Cache: cache, JournalDir: jdir})

	code, b := ts.get("/v1/jobs/j-000007")
	if code != http.StatusOK {
		t.Fatalf("status: %d: %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !st.Recovered || !strings.Contains(st.Error, "spec missing") {
		t.Fatalf("unrecoverable job status: %+v", st)
	}
	// New submissions must not collide with the recovered id space. (The 202
	// snapshot may already show a later state — a journaled submit fsyncs
	// between enqueue and response, so a fast job can be past queued.)
	code, b = ts.submit(`{"controller":"rmw","workload":"bwaves","n":1000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after recovery: %d: %s", code, b)
	}
	var next JobStatus
	if err := json.Unmarshal(b, &next); err != nil {
		t.Fatal(err)
	}
	if next.ID <= "j-000007" {
		t.Fatalf("new job id %s does not advance past recovered ids", next.ID)
	}
}

// TestNewJournalRequiresDiskCache pins the misconfiguration guard: a journal
// without a persistent CAS cannot hold specs or checkpoints, so New must
// refuse rather than degrade silently.
func TestNewJournalRequiresDiskCache(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(Config{JournalDir: dir}); err == nil {
		t.Fatal("New accepted JournalDir with no cache")
	}
	memOnly, err := rescache.Open(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer memOnly.Close()
	if _, err := New(Config{JournalDir: dir, Cache: memOnly}); err == nil {
		t.Fatal("New accepted JournalDir with a memory-only cache")
	}
}

// TestRecoveredResultGone pins the 410 contract: a recovered succeeded job
// whose artifact was evicted from the CAS reports Gone, not a server error.
func TestRecoveredResultGone(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"v":1,"job":"j-000003","state":"succeeded","spec_key":"%s","accesses":12}`+"\n",
		strings.Repeat("ab", 32))
	if err := os.WriteFile(filepath.Join(jdir, journalFile), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := openTestCache(t, filepath.Join(dir, "cas"))
	ts := newTestServer(t, Config{Workers: 1, Cache: cache, JournalDir: jdir})

	code, b := ts.get("/v1/jobs/j-000003/result")
	if code != http.StatusGone {
		t.Fatalf("result of artifact-less recovered job: %d (want 410): %s", code, b)
	}
}

// TestJournalRetentionPreservesLiveJobs pins the retention GC (ROADMAP 5c):
// with JournalRetain set, a restart forgets terminal jobs older than the
// window — they leave the job table and the compacted journal file — while
// a live job of the same age is recovered and re-run, never aged out.
func TestJournalRetentionPreservesLiveJobs(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	cdir := filepath.Join(dir, "cas")
	const body = `{"controller":"rmw","workload":"bwaves","n":2000}`

	cache1 := openTestCache(t, cdir)
	ts1 := newTestServer(t, Config{Workers: 1, Cache: cache1, JournalDir: jdir})
	stA := submitAccepted(ts1, body)
	if fin := ts1.waitTerminal(stA.ID); fin.State != StateSucceeded {
		t.Fatalf("job A ended %s: %s", fin.State, fin.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := ts1.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.hs.Close()
	cache1.Close()

	// Backdate every record past the retention window, and graft in a live
	// (queued) job of the same age reusing job A's pinned spec: retention
	// must drop the finished job and keep the live one.
	path := filepath.Join(jdir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := compactRecords(decodeJournal(data))
	if len(recs) != 1 || recs[0].SpecKey == "" || !recs[0].State.Terminal() {
		t.Fatalf("journal did not compact to one finished job: %q", data)
	}
	old := time.Now().Add(-2 * time.Hour).UnixMilli()
	live := recs[0]
	live.Job = "j-000099"
	live.State = StateQueued
	live.Accesses = 0
	live.Cached = false
	recs = append(recs, live)
	var buf bytes.Buffer
	for _, rec := range recs {
		rec.UnixMS = old
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cache2 := openTestCache(t, cdir)
	ts2 := newTestServer(t, Config{Workers: 1, Cache: cache2, JournalDir: jdir, JournalRetain: time.Hour})

	code, b := ts2.get("/v1/jobs/" + stA.ID)
	if code != http.StatusNotFound {
		t.Fatalf("aged-out terminal job still served: %d: %s", code, b)
	}
	fin := ts2.waitTerminal("j-000099")
	if fin.State != StateSucceeded || !fin.Recovered {
		t.Fatalf("live job after retention restart: state %s recovered %v: %s", fin.State, fin.Recovered, fin.Error)
	}
	code, lst := ts2.get("/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, lst)
	}
	var jobs []JobStatus
	if err := json.Unmarshal(lst, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-000099" {
		t.Fatalf("job table after retention restart: %+v", jobs)
	}

	// The GC is durable: the compacted file no longer mentions the old job,
	// so a later open without retention cannot resurrect it.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), stA.ID) {
		t.Fatalf("compacted journal still mentions the aged-out job:\n%s", data)
	}
}

// TestRecoveredJobFinishedBeforeSubscribe pins the SSE frame race
// deterministically: a recovered job that finishes before its watcher
// subscribes opens the stream with a `recovered` frame whose data is
// already terminal. Exactly one terminal `status` frame must follow, and a
// watcher reading frames by event name must see the job succeed.
func TestRecoveredJobFinishedBeforeSubscribe(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	cdir := filepath.Join(dir, "cas")
	const body = `{"controller":"rmw","workload":"bwaves","n":2000}`

	cache1 := openTestCache(t, cdir)
	ts1 := newTestServer(t, Config{Workers: 1, Cache: cache1, JournalDir: jdir})
	st := submitAccepted(ts1, body)
	if fin := ts1.waitTerminal(st.ID); fin.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := ts1.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.hs.Close()
	cache1.Close()

	// Rewrite the journal so the finished job reads as still queued: the
	// restarted server recovers it and runs it again.
	path := filepath.Join(jdir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := compactRecords(decodeJournal(data))
	if len(recs) != 1 {
		t.Fatalf("journal did not compact to one job: %q", data)
	}
	recs[0].State, recs[0].Accesses, recs[0].Cached = StateQueued, 0, false
	line, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	cache2 := openTestCache(t, cdir)
	ts2 := newTestServer(t, Config{Workers: 1, Cache: cache2, JournalDir: jdir})
	ts2.srv.mu.Lock()
	j := ts2.srv.jobs[st.ID]
	ts2.srv.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s not recovered", st.ID)
	}
	// Wait, without subscribing, for the recovered job to finish.
	for {
		ch := j.watch()
		if j.State().Terminal() {
			break
		}
		select {
		case <-ch:
		case <-ctx.Done():
			t.Fatal("recovered job never finished")
		}
	}

	final, sawRecovered, terminals := collectEvents(ts2, st.ID)
	if !sawRecovered {
		t.Error("watcher saw no recovered frame")
	}
	if terminals != 1 {
		t.Errorf("watcher saw %d terminal status frames, want exactly 1", terminals)
	}
	if final.State != StateSucceeded || !final.Recovered {
		t.Errorf("terminal status: state %s recovered %v", final.State, final.Recovered)
	}
	if fin := ts2.waitTerminal(st.ID); fin.State != StateSucceeded {
		t.Errorf("waitTerminal: state %s", fin.State)
	}
}
