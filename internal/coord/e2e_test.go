package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cache8t/internal/rescache"
	"cache8t/internal/server"
)

// newWorkerServer spins up a real in-process sramd worker (the full job
// server, not a fake) behind an httptest listener.
func newWorkerServer(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 2, Version: "coord-test"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return hs.URL
}

func TestCoordinatedSweepMatchesSerialByteForByte(t *testing.T) {
	// The acceptance criterion end to end: a 3-worker coordinated fan-out
	// (real job servers, real HTTP, parallel dispatch, round-robin
	// scheduling) produces a merged ledger byte-identical to the serial
	// in-process run of the same sweep.
	workers := []string{newWorkerServer(t), newWorkerServer(t), newWorkerServer(t)}
	h := newHarness(t, Config{
		Workers:          workers,
		DispatchParallel: 4,
		PollInterval:     2 * time.Millisecond,
		JitterSeed:       7,
	})

	spec := SweepSpec{
		Controllers: []string{"rmw", "wgrb"},
		Workloads:   []string{"bwaves"},
		Seeds:       []uint64{1, 2, 3},
		N:           400,
	}
	st := h.submit(spec)
	st = h.waitTerminal(st.ID, 0) // real clock: waitTerminal only polls
	if st.State != server.StateSucceeded {
		t.Fatalf("sweep %s: %s (%s)", st.ID, st.State, st.Error)
	}
	if st.Done != 6 || st.Points != 6 {
		t.Fatalf("done %d/%d, want 6/6", st.Done, st.Points)
	}
	requireSerialLedger(t, spec, h.result(st.ID))
}

func TestCoordinatorRecoversSweepFromJournal(t *testing.T) {
	// Crash recovery: a coordinator that died with a sweep journaled but
	// unfinished must, on restart, re-dispatch the sweep — resuming, not
	// restarting, because points already in the result cache are never
	// re-simulated.
	dir := t.TempDir()
	cache, err := rescache.Open(rescache.Config{Dir: filepath.Join(dir, "cas")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	jdir := filepath.Join(dir, "journal")

	spec := tinySweep(1, 2, 3)
	spec.Normalize()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Decompose()
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the dead coordinator's footprint: a queued record carrying
	// the spec in the journal, and point 0 already finished in the cache.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	art0, err := server.Execute(context.Background(), points[0].Spec, points[0].Source, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(points[0].ConfigHash, art0)
	j, _, err := server.OpenRecordJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRecord(server.Record{Job: "s-000001", State: server.StateQueued, SpecKey: hash, Spec: specJSON}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	h := newHarness(t, Config{
		Workers:      []string{newWorkerServer(t)},
		Cache:        cache,
		JournalDir:   jdir,
		PollInterval: 2 * time.Millisecond,
		JitterSeed:   9,
	})
	if got := h.c.met.sweepsRecovered.Load(); got != 1 {
		t.Fatalf("recovered metric = %d, want 1", got)
	}
	st := h.waitTerminal("s-000001", 0)
	if st.State != server.StateSucceeded {
		t.Fatalf("recovered sweep: %s (%s)", st.State, st.Error)
	}
	if !st.Recovered {
		t.Fatal("status does not carry recovered flag")
	}
	if st.Cached < 1 {
		t.Fatalf("cached = %d, want >= 1 (point 0 was pre-finished)", st.Cached)
	}
	merged := h.result("s-000001")
	requireSerialLedger(t, spec, merged)

	// A fresh submission after recovery continues the id sequence.
	st2 := h.submit(tinySweep(9))
	if st2.ID != "s-000002" {
		t.Fatalf("post-recovery id = %s, want s-000002", st2.ID)
	}
	if got := h.waitTerminal(st2.ID, 0); got.State != server.StateSucceeded {
		t.Fatalf("post-recovery sweep: %s (%s)", got.State, got.Error)
	}

	// Second life: everything terminal now, so a restarted coordinator
	// re-registers both sweeps and serves the merged ledger from the cache.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.c.Shutdown(ctx)
	cancel()

	c2, err := New(Config{Cache: cache, JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c2.Shutdown(ctx)
	}()
	s2, ok := c2.sweeps.Get("s-000001")
	if !ok {
		t.Fatal("terminal sweep lost on second recovery")
	}
	if st := s2.State(); st != server.StateSucceeded {
		t.Fatalf("second-life state = %s, want succeeded", st)
	}
	rr := httptest.NewRecorder()
	c2.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/sweeps/s-000001/result", nil))
	if got := rr.Body.Bytes(); rr.Code != http.StatusOK || !bytes.Equal(got, merged) {
		t.Fatalf("second-life ledger: status %d, %d bytes, want 200 with the %d merged bytes", rr.Code, len(got), len(merged))
	}
}

func TestSubmitShortCircuitsOnCachedLedger(t *testing.T) {
	// Submitting a sweep whose merged ledger is already in the result
	// cache finishes succeeded without touching a single worker — the
	// sweep-level analogue of the worker's cached submit.
	dir := t.TempDir()
	cache, err := rescache.Open(rescache.Config{Dir: filepath.Join(dir, "cas")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })

	spec := tinySweep(4)
	want, err := ExecuteSerial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	specN := spec
	specN.Normalize()
	hash, err := specN.Hash()
	if err != nil {
		t.Fatal(err)
	}
	cache.Put("ledger:"+hash, want)

	// No workers registered at all: any dispatch attempt would fail.
	h := newHarness(t, Config{Cache: cache, JitterSeed: 11})
	st := h.submit(spec)
	st = h.waitTerminal(st.ID, 0)
	if st.State != server.StateSucceeded {
		t.Fatalf("cached sweep: %s (%s)", st.State, st.Error)
	}
	if st.Cached != st.Points || st.Done != st.Points {
		t.Fatalf("cached %d done %d, want both == points %d", st.Cached, st.Done, st.Points)
	}
	if got := h.result(st.ID); !bytes.Equal(got, want) {
		t.Fatal("short-circuited ledger differs from the cached bytes")
	}
	if got := h.c.met.pointsDispatched.Load(); got != 0 {
		t.Fatalf("dispatched %d points for a fully cached sweep", got)
	}
}

// TestRecoveredSweepResultGone: a recovered succeeded sweep whose merged
// ledger left the result cache answers 410, as a worker does for an evicted
// artifact — the sweep succeeded, its bytes are gone, and resubmitting
// recomputes them.
func TestRecoveredSweepResultGone(t *testing.T) {
	dir := t.TempDir()
	cache, err := rescache.Open(rescache.Config{Dir: filepath.Join(dir, "cas")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	spec := tinySweep(1)
	spec.Normalize()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"v":1,"job":"s-000001","state":"succeeded","spec_key":"%s","spec":%s}`+"\n", hash, specJSON)
	if err := os.WriteFile(filepath.Join(jdir, "journal.log"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, Config{Cache: cache, JournalDir: jdir})

	if st := h.status("s-000001"); st.State != server.StateSucceeded || !st.Recovered || st.Points != spec.Points() {
		t.Fatalf("recovered sweep: state %s recovered %v points %d, want succeeded, true, %d", st.State, st.Recovered, st.Points, spec.Points())
	}
	if code, b := h.do(http.MethodGet, "/v1/sweeps/s-000001/result", nil); code != http.StatusGone {
		t.Fatalf("result of a ledger-less recovered sweep: %d (want 410): %s", code, b)
	}
}

// TestFinishedSweepsTableBounded submits far more sweeps than the table
// keeps finished, each short-circuited by its cached ledger. The table
// stays bounded: the oldest finished sweeps answer 404 and leave the
// listing, and the newest still serves its ledger.
func TestFinishedSweepsTableBounded(t *testing.T) {
	cache, err := rescache.Open(rescache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	spec := tinySweep(4)
	want, err := ExecuteSerial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	specN := spec
	specN.Normalize()
	hash, err := specN.Hash()
	if err != nil {
		t.Fatal(err)
	}
	cache.Put("ledger:"+hash, want)
	h := newHarness(t, Config{Cache: cache})

	sweeps := make([]SweepStatus, server.MaxFinished+50)
	for i := range sweeps {
		if sweeps[i] = h.submit(spec); sweeps[i].State != server.StateSucceeded {
			t.Fatalf("submission %d: %s, want a succeeded short circuit", i, sweeps[i].State)
		}
	}
	for _, st := range sweeps[:50] {
		if code, _ := h.do(http.MethodGet, "/v1/sweeps/"+st.ID, nil); code != http.StatusNotFound {
			t.Fatalf("sweep %s, among the oldest finished: status %d, want 404", st.ID, code)
		}
	}
	if got := h.result(sweeps[len(sweeps)-1].ID); !bytes.Equal(got, want) {
		t.Fatal("newest sweep's result differs from the cached ledger")
	}
	code, b := h.do(http.MethodGet, "/v1/sweeps", nil)
	var list struct {
		Sweeps []SweepStatus `json:"sweeps"`
		Count  int           `json:"count"`
	}
	if err := json.Unmarshal(b, &list); code != http.StatusOK || err != nil {
		t.Fatalf("list: %d %v", code, err)
	}
	if list.Count != server.MaxFinished || len(list.Sweeps) != server.MaxFinished {
		t.Fatalf("table lists %d sweeps (count %d), want %d", len(list.Sweeps), list.Count, server.MaxFinished)
	}
}
