package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cache8t/internal/report"
	"cache8t/internal/rescache"
	"cache8t/internal/trace"
)

// openTestCache opens a result cache and schedules it to close after the
// servers using it have shut down (t.Cleanup is LIFO, so register the cache
// before the server).
func openTestCache(t *testing.T, cfg rescache.Config) *rescache.Cache {
	t.Helper()
	c, err := rescache.Open(cfg)
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

	cache1 := openTestCache(t, rescache.Config{Dir: cdir})
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

	cache2 := openTestCache(t, rescache.Config{Dir: cdir})
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
	// The artifact is refetched from the result cache by config hash.
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

// crashMidRun runs a journaled server with one worker over a cache opened
// from rc, checkpointing every batch. It submits body, holds that job
// mid-run, submits each of queued behind it, and crashes the server. It
// returns body's 202 status; jdir holds the journal (with the held job's
// checkpoint file) and rc's directory, if any, the disk tier for a restart.
func crashMidRun(t *testing.T, jdir string, rc rescache.Config, body string, queued ...string) JobStatus {
	t.Helper()
	held, err := DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	cache1 := openTestCache(t, rc)
	g := newGate(1000)
	ts1 := newTestServer(t, Config{
		Workers: 1, Cache: cache1, JournalDir: jdir, CheckpointEvery: 1,
		testWrapStream: func(ctx context.Context, j *Job, s trace.Stream) trace.Stream {
			if j.Spec != held {
				return s
			}
			return g.wrap(ctx, j, s)
		},
	})
	st := submitAccepted(ts1, body)
	<-g.entered // mid-run: ~15 batches fed, each synchronously checkpointed
	for _, q := range queued {
		submitAccepted(ts1, q)
	}

	// Crash: every transition after this point is lost to the journal. The
	// cancel tears the run down in-memory (its cancelled record is dropped),
	// so the journal's last word is "running" — exactly a kill -9's view.
	// The queued jobs drain, and their terminal records are lost too.
	ts1.srv.journal.freeze()
	ts1.cancel(st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := ts1.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.hs.Close()
	cache1.Close()
	return st
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
	st := crashMidRun(t, jdir, rescache.Config{Dir: cdir}, body)

	cache2 := openTestCache(t, rescache.Config{Dir: cdir})
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

// asVersion1 returns a copy of a checkpoint blob with its version field, the
// two bytes after the 8-byte magic, set to 1: a blob as the build before
// checkpoint version 2 wrote it, as far as the version check can tell.
func asVersion1(blob []byte) []byte {
	old := bytes.Clone(blob)
	binary.LittleEndian.PutUint16(old[8:], 1)
	return old
}

// TestRunSpecDurableOlderCheckpoint pins the upgrade path in process: a
// checkpoint that resumes at this build's version is refused at version 1,
// and the run starts again from access zero, to the bytes of a straight run.
func TestRunSpecDurableOlderCheckpoint(t *testing.T) {
	spec, err := DecodeSpec([]byte(`{"controller":"wg","workload":"bwaves","n":3000,"batch":64}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var blobs [][]byte
	sink := func(blob []byte, _ uint64) error {
		blobs = append(blobs, blob)
		return nil
	}
	if _, _, err := RunSpec(ctx, spec, nil, Checkpoint{Every: 1, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	mid := blobs[len(blobs)/2]
	if _, resumed, err := RunSpec(ctx, spec, nil, Checkpoint{Resume: mid}); err != nil || !resumed {
		t.Fatalf("current blob: resumed = %v, err = %v; want a resume", resumed, err)
	}
	res, resumed, err := RunSpec(ctx, spec, nil, Checkpoint{Resume: asVersion1(mid)})
	if err != nil || resumed {
		t.Fatalf("version-1 blob: resumed = %v, err = %v; want a run from access zero", resumed, err)
	}
	got, err := report.Encode(Artifact(spec, spec.Workload, res))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(ctx, spec, spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("run after a version-1 blob differs from a straight run")
	}
}

// TestCheckpointOfAnotherSpecRecomputes pins that a run resumes only its
// own checkpoint: a blob of a 32 KB WG bwaves run offered to the same spec
// at 64 KB is refused, so the run starts from access zero, reports resumed
// false, and ends with Execute's bytes rather than the blob's geometry.
func TestCheckpointOfAnotherSpecRecomputes(t *testing.T) {
	decode := func(body string) JobSpec {
		spec, err := DecodeSpec([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	small := decode(`{"controller":"wg","workload":"bwaves","n":3000,"batch":64,"cache":{"size_kb":32}}`)
	spec := decode(`{"controller":"wg","workload":"bwaves","n":3000,"batch":64,"cache":{"size_kb":64}}`)
	ctx := context.Background()
	var blobs [][]byte
	sink := func(blob []byte, _ uint64) error {
		blobs = append(blobs, blob)
		return nil
	}
	if _, _, err := RunSpec(ctx, small, nil, Checkpoint{Every: 1, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	res, resumed, err := RunSpec(ctx, spec, nil, Checkpoint{Resume: blobs[len(blobs)/2]})
	if err != nil || resumed {
		t.Fatalf("32 KB blob on a 64 KB spec: resumed = %v, err = %v; want a run from access zero", resumed, err)
	}
	got, err := report.Encode(Artifact(spec, spec.Workload, res))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(ctx, spec, spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("run offered another spec's checkpoint differs from a straight run")
	}
}

// TestRecoveryOlderCheckpointRecomputes is the same upgrade through a
// restart: a recovered job whose checkpoint file holds a version-1 blob
// restores no checkpoint, runs from access zero and ends with the bytes of
// an uninterrupted run.
func TestRecoveryOlderCheckpointRecomputes(t *testing.T) {
	recoverDamagedCheckpoint(t, func(path string) {
		blob, err := rescache.ReadSealed(path)
		if err != nil {
			t.Fatalf("no checkpoint written before the crash: %v", err)
		}
		if err := rescache.WriteSealed(path, asVersion1(blob)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoveryCorruptCheckpointRecomputes flips one byte of a crashed job's
// checkpoint file: the sealed sha256 rejects it, so the recovered job
// restores no checkpoint and ends with the bytes of an uninterrupted run.
func TestRecoveryCorruptCheckpointRecomputes(t *testing.T) {
	recoverDamagedCheckpoint(t, func(path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no checkpoint written before the crash: %v", err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// recoverDamagedCheckpoint crashes a job mid-run, applies damage to its
// checkpoint file, restarts, and requires a run from access zero to the
// bytes of an uninterrupted run.
func recoverDamagedCheckpoint(t *testing.T, damage func(path string)) {
	t.Helper()
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	cdir := filepath.Join(dir, "cas")
	const body = `{"controller":"wgrb","workload":"bwaves","n":3000,"batch":64}`
	st := crashMidRun(t, jdir, rescache.Config{Dir: cdir}, body)
	damage(filepath.Join(jdir, "ckpt", st.ID))

	cache2 := openTestCache(t, rescache.Config{Dir: cdir})
	ts2 := newTestServer(t, Config{Workers: 1, Cache: cache2, JournalDir: jdir, CheckpointEvery: 1})

	final := ts2.waitTerminal(st.ID)
	if final.State != StateSucceeded || !final.Recovered {
		t.Fatalf("recovered job ended %s (recovered %v): %s", final.State, final.Recovered, final.Error)
	}
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
	_, m := ts2.get("/metrics")
	for _, want := range []string{"sramd_recovered_jobs_total 1", "sramd_checkpoints_restored_total 0"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestCheckpointOnlySerialJobs pins where the checkpoint rule lives: the
// server hands every job its checkpoint knobs, and the run path takes
// checkpoints on serial single-level specs only. On a journaled server that
// checkpoints every batch, a sharded job and a hierarchy job end with
// Execute's bytes and write no checkpoint; a serial job then does (another
// n, since shards do not enter the config hash and the result cache would
// serve it).
func TestCheckpointOnlySerialJobs(t *testing.T) {
	dir := t.TempDir()
	rc := openTestCache(t, rescache.Config{Dir: filepath.Join(dir, "cas")})
	ts := newTestServer(t, Config{Workers: 1, Cache: rc, JournalDir: filepath.Join(dir, "journal"), CheckpointEvery: 1})
	written := func() float64 {
		_, m := ts.get("/metrics")
		return metricValue(t, m, "sramd_checkpoints_written_total")
	}
	for _, body := range []string{
		`{"controller":"wg","workload":"bwaves","n":3000,"batch":64,"shards":4}`,
		`{"controller":"wgrb","workload":"bwaves","n":3000,"batch":64,"hierarchy":true}`,
	} {
		st := submitAccepted(ts, body)
		if fin := ts.waitTerminal(st.ID); fin.State != StateSucceeded {
			t.Fatalf("%s: ended %s: %s", body, fin.State, fin.Error)
		}
		code, got := ts.get("/v1/jobs/" + st.ID + "/result")
		if code != http.StatusOK {
			t.Fatalf("%s: result %d: %s", body, code, got)
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
			t.Fatalf("%s: artifact differs from Execute", body)
		}
		if n := written(); n != 0 {
			t.Fatalf("%s: sramd_checkpoints_written_total = %v, want 0", body, n)
		}
	}
	st := submitAccepted(ts, `{"controller":"wg","workload":"bwaves","n":2000,"batch":64}`)
	if fin := ts.waitTerminal(st.ID); fin.State != StateSucceeded {
		t.Fatalf("serial job ended %s: %s", fin.State, fin.Error)
	}
	if n := written(); n == 0 {
		t.Fatal("the serial job wrote no checkpoint")
	}
}

// TestCheckpointRemovedAtTerminal pins that a checkpoint is job state, not
// a result: a succeeded, a failed and a cancelled job, each checkpointed
// every batch, leave <journal>/ckpt/ empty, and no checkpoint reaches the
// result cache.
func TestCheckpointRemovedAtTerminal(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	rc := openTestCache(t, rescache.Config{Dir: filepath.Join(dir, "cas")})
	g := newGate(1000)
	ts := newTestServer(t, Config{
		Workers: 1, Cache: rc, JournalDir: jdir, CheckpointEvery: 1,
		testWrapStream: func(ctx context.Context, j *Job, s trace.Stream) trace.Stream {
			switch j.Spec.Seed {
			case 2: // fails mid-run
				var served int
				return trace.Func(func() (trace.Access, bool) {
					if served == 1000 {
						panic("source failed")
					}
					served++
					return s.Next()
				})
			case 3: // held mid-run until cancelled
				return g.wrap(ctx, j, s)
			}
			return s
		},
	})
	for _, tc := range []struct {
		seed int
		want State
	}{{1, StateSucceeded}, {2, StateFailed}, {3, StateCancelled}} {
		st := submitAccepted(ts, fmt.Sprintf(`{"controller":"wg","workload":"bwaves","n":3000,"batch":64,"seed":%d}`, tc.seed))
		if tc.want == StateCancelled {
			<-g.entered
			ts.cancel(st.ID)
		}
		if fin := ts.waitTerminal(st.ID); fin.State != tc.want {
			t.Fatalf("seed %d: job ended %s (%s), want %s", tc.seed, fin.State, fin.Error, tc.want)
		}
		if ents, err := os.ReadDir(filepath.Join(jdir, "ckpt")); err != nil || len(ents) != 0 {
			t.Fatalf("%s job left %d checkpoint files (err %v), want none", tc.want, len(ents), err)
		}
		if _, _, ok := rc.Get("ckpt:" + st.ID); ok {
			t.Fatalf("%s job's checkpoint is in the result cache", tc.want)
		}
	}
	_, m := ts.get("/metrics")
	if n := metricValue(t, m, "sramd_checkpoints_written_total"); n <= 0 {
		t.Fatalf("sramd_checkpoints_written_total = %v, want > 0", n)
	}
}

// TestRecoverySweepsCheckpoints pins the recovery sweep: New removes the
// checkpoint file of a terminal job and one of an id the journal does not
// know, and keeps the re-enqueued job's, which the job then resumes from.
func TestRecoverySweepsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	cdir := filepath.Join(dir, "cas")
	const body = `{"controller":"wgrb","workload":"bwaves","n":3000,"batch":64}`
	st := crashMidRun(t, jdir, rescache.Config{Dir: cdir}, body)

	f, err := os.OpenFile(filepath.Join(jdir, journalFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fmt.Fprintf(f, `{"v":1,"job":"j-000050","state":"succeeded","spec_key":"%s","accesses":12}`+"\n", strings.Repeat("ab", 32))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	stale := []string{filepath.Join(jdir, "ckpt", "j-000050"), filepath.Join(jdir, "ckpt", "j-999999")}
	for _, path := range stale {
		if err := rescache.WriteSealed(path, []byte("stale checkpoint")); err != nil {
			t.Fatal(err)
		}
	}

	cache2 := openTestCache(t, rescache.Config{Dir: cdir})
	ts2 := newTestServer(t, Config{Workers: 1, Cache: cache2, JournalDir: jdir, CheckpointEvery: 1})
	for _, path := range stale {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("recovery kept %s: %v", path, err)
		}
	}
	if fin := ts2.waitTerminal(st.ID); fin.State != StateSucceeded {
		t.Fatalf("recovered job ended %s: %s", fin.State, fin.Error)
	}
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
	_, m := ts2.get("/metrics")
	if !strings.Contains(string(m), "sramd_checkpoints_restored_total 1") {
		t.Errorf("the re-enqueued job did not resume from its kept checkpoint:\n%s", m)
	}
	if ents, err := os.ReadDir(filepath.Join(jdir, "ckpt")); err != nil || len(ents) != 0 {
		t.Fatalf("%d checkpoint files left after the recovered job succeeded (err %v)", len(ents), err)
	}
}

// TestRecoverySpecMissing pins the degraded path: a journaled unfinished job
// whose record carries no spec, as an older build wrote it, must fail with
// an explicit error, not vanish from the table or wedge the queue.
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
	cache := openTestCache(t, rescache.Config{Dir: filepath.Join(dir, "cas")})
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

// TestRecoveryOutlivesSpecEviction pins that the journal alone rebuilds a
// job: a held job and six queued behind it, on a disk tier of 1.5 KB that
// evicts whatever the jobs put in it, all recover from their journal
// records after a crash, and the held job resumes to Execute's bytes.
func TestRecoveryOutlivesSpecEviction(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	rc := rescache.Config{Dir: filepath.Join(dir, "cas"), DiskBytes: 1500, MemBytes: 1}
	const body = `{"controller":"wgrb","workload":"bwaves","n":3000,"batch":64}`
	var queued []string
	for n := 1000; n <= 1005; n++ {
		queued = append(queued, fmt.Sprintf(`{"controller":"rmw","workload":"mcf","n":%d}`, n))
	}
	st := crashMidRun(t, jdir, rc, body, queued...)

	ts2 := newTestServer(t, Config{Workers: 1, Cache: openTestCache(t, rc), JournalDir: jdir, CheckpointEvery: 1})
	code, lst := ts2.get("/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list after restart: %d: %s", code, lst)
	}
	var jobs []JobStatus
	if err := json.Unmarshal(lst, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1+len(queued) || jobs[0].ID != st.ID {
		t.Fatalf("job table after restart: %+v", jobs)
	}
	for _, j := range jobs {
		if fin := ts2.waitTerminal(j.ID); fin.State != StateSucceeded || !fin.Recovered {
			t.Fatalf("job %s after restart: %s (recovered %v): %s", j.ID, fin.State, fin.Recovered, fin.Error)
		}
	}
	requireExecuteBytes(t, ts2, st.ID, body)
}

// TestRecoveryWithoutDiskTier pins that a journal needs no disk tier: on a
// memory-only cache, a crashed job resumes from its checkpoint file to
// Execute's bytes, and a job that succeeded before the crash answers 410,
// its artifact gone with the process.
func TestRecoveryWithoutDiskTier(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	ts0 := newTestServer(t, Config{Workers: 1, Cache: openTestCache(t, rescache.Config{}), JournalDir: jdir})
	done := submitAccepted(ts0, `{"controller":"rmw","workload":"bwaves","n":2000}`)
	if fin := ts0.waitTerminal(done.ID); fin.State != StateSucceeded {
		t.Fatalf("job before the crash ended %s: %s", fin.State, fin.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := ts0.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts0.hs.Close()

	const body = `{"controller":"wgrb","workload":"bwaves","n":3000,"batch":64}`
	st := crashMidRun(t, jdir, rescache.Config{}, body)
	ts2 := newTestServer(t, Config{Workers: 1, Cache: openTestCache(t, rescache.Config{}), JournalDir: jdir, CheckpointEvery: 1})
	if fin := ts2.waitTerminal(st.ID); fin.State != StateSucceeded || !fin.Recovered {
		t.Fatalf("recovered job ended %s (recovered %v): %s", fin.State, fin.Recovered, fin.Error)
	}
	requireExecuteBytes(t, ts2, st.ID, body)
	if _, m := ts2.get("/metrics"); metricValue(t, m, "sramd_checkpoints_restored_total") != 1 {
		t.Errorf("the recovered job did not resume from its checkpoint:\n%s", m)
	}
	if code, b := ts2.get("/v1/jobs/" + done.ID + "/result"); code != http.StatusGone {
		t.Fatalf("result of a job that succeeded before the crash: %d (want 410): %s", code, b)
	}
}

// TestCheckpointWriteFailureRunsOn makes every checkpoint write fail by
// replacing <JournalDir>/ckpt with a plain file after New (ENOTDIR, which
// holds for root too): the job runs on to Execute's bytes, and no
// checkpoint counts as written.
func TestCheckpointWriteFailureRunsOn(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	ts := newTestServer(t, Config{Workers: 1, JournalDir: jdir, CheckpointEvery: 1})
	ckpt := filepath.Join(jdir, "ckpt")
	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	const body = `{"controller":"wg","workload":"bwaves","n":3000,"batch":64}`
	st := submitAccepted(ts, body)
	if fin := ts.waitTerminal(st.ID); fin.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	requireExecuteBytes(t, ts, st.ID, body)
	if _, m := ts.get("/metrics"); metricValue(t, m, "sramd_checkpoints_written_total") != 0 {
		t.Fatalf("checkpoints counted as written into a plain file:\n%s", m)
	}
}

// requireExecuteBytes requires job id's result to be Execute's bytes for
// body, an uninterrupted in-process run.
func requireExecuteBytes(t *testing.T, ts *testServer, id, body string) {
	t.Helper()
	code, got := ts.get("/v1/jobs/" + id + "/result")
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
		t.Fatalf("job %s's artifact differs from an uninterrupted run", id)
	}
}

// TestRecoveredResultGone pins the 410 contract: a recovered succeeded job
// whose artifact was evicted from the result cache reports Gone, not a
// server error.
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
	cache := openTestCache(t, rescache.Config{Dir: filepath.Join(dir, "cas")})
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

	cache1 := openTestCache(t, rescache.Config{Dir: cdir})
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

	cache2 := openTestCache(t, rescache.Config{Dir: cdir})
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

	cache1 := openTestCache(t, rescache.Config{Dir: cdir})
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

	cache2 := openTestCache(t, rescache.Config{Dir: cdir})
	ts2 := newTestServer(t, Config{Workers: 1, Cache: cache2, JournalDir: jdir})
	j, ok := ts2.srv.jobs.Get(st.ID)
	if !ok {
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
