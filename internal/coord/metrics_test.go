package coord

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cache8t/internal/rescache"
	"cache8t/internal/server"
)

// TestMetricsExposition pins the Prometheus text format of both daemons'
// /metrics: a worker running with a disk cache and a journal, and a
// coordinator that dispatched a sweep to it, so every series either
// exposes is populated. Each sample's metric family must be introduced by
// exactly one # HELP and one # TYPE line before the sample.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	cache, err := rescache.Open(rescache.Config{Dir: filepath.Join(dir, "cas")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	srv, err := server.New(server.Config{Workers: 1, Cache: cache, JournalDir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		worker.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	h := newHarness(t, Config{Workers: []string{worker.URL}, PollInterval: 2 * time.Millisecond, JitterSeed: 5})
	if st := h.waitTerminal(h.submit(tinySweep(1, 2)).ID, 0); st.State != server.StateSucceeded {
		t.Fatalf("sweep: %s (%s)", st.State, st.Error)
	}
	for name, url := range map[string]string{"worker": worker.URL, "coordinator": h.hs.URL} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Get(url + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			requireExposition(t, string(body))
		})
	}
}

// requireExposition checks every sample line of a /metrics body against
// the # HELP and # TYPE lines before it, then checks that no family is
// described twice anywhere.
func requireExposition(t *testing.T, body string) {
	t.Helper()
	helps, types := map[string]int{}, map[string]int{}
	kind := map[string]string{}
	samples := 0
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP ") && len(f) >= 4:
			helps[f[2]]++
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			types[f[2]]++
			kind[f[2]] = f[3]
		case len(f) < 2 || strings.HasPrefix(line, "#"):
			t.Errorf("line %d: malformed %q", i+1, line)
		default:
			samples++
			fam := family(line[:strings.IndexAny(line, "{ ")], kind)
			if helps[fam] != 1 || types[fam] != 1 {
				t.Errorf("line %d: sample %q: family %s has %d HELP and %d TYPE lines before it, want 1 and 1",
					i+1, line, fam, helps[fam], types[fam])
			}
		}
	}
	described := map[string]bool{}
	for fam := range helps {
		described[fam] = true
	}
	for fam := range types {
		described[fam] = true
	}
	for fam := range described {
		if helps[fam] != 1 || types[fam] != 1 {
			t.Errorf("family %s: %d HELP and %d TYPE lines, want 1 and 1", fam, helps[fam], types[fam])
		}
	}
	if samples == 0 {
		t.Error("no samples exposed")
	}
}

// family maps a sample name to its metric family: a histogram's _bucket,
// _sum and _count samples belong to the histogram.
func family(name string, kind map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && kind[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestMetricsRenderBytes pins the coordinator's /metrics body byte for byte
// at fixed counter values, with a journal and workers in every breaker
// state.
func TestMetricsRenderBytes(t *testing.T) {
	var m coordMetrics
	for i, c := range []*atomic.Int64{
		&m.sweepsSubmitted, &m.sweepsRejected, &m.sweepsSucceeded, &m.sweepsFailed, &m.sweepsCancelled,
		&m.sweepsRecovered, &m.pointsDispatched, &m.pointsSucceeded, &m.pointsCached, &m.redispatches,
		&m.corruptArtifacts, &m.breakerOpens,
	} {
		c.Add(int64(i + 1))
	}
	workers := []WorkerStatus{{Breaker: "closed"}, {Breaker: "open"}, {Breaker: "closed"}, {Breaker: "half-open"}}
	var b strings.Builder
	m.render(&b, workers, 2, false, 4321)
	if got := b.String(); got != wantCoordMetrics {
		t.Fatalf("/metrics body drifted:\n%s\nwant:\n%s", got, wantCoordMetrics)
	}
}

const wantCoordMetrics = `# HELP coord_accepting Whether the coordinator is accepting new sweeps (0 while draining).
# TYPE coord_accepting gauge
coord_accepting 0
# HELP coord_sweeps_active Sweeps currently queued or dispatching.
# TYPE coord_sweeps_active gauge
coord_sweeps_active 2
# HELP coord_sweeps_total Terminal sweeps by state, plus accepted/rejected/recovered submissions.
# TYPE coord_sweeps_total counter
coord_sweeps_total{state="submitted"} 1
coord_sweeps_total{state="rejected"} 2
coord_sweeps_total{state="succeeded"} 3
coord_sweeps_total{state="failed"} 4
coord_sweeps_total{state="cancelled"} 5
coord_sweeps_total{state="recovered"} 6
# HELP coord_points_total Point dispatch accounting across all sweeps.
# TYPE coord_points_total counter
coord_points_total{event="dispatched"} 7
coord_points_total{event="succeeded"} 8
coord_points_total{event="cached"} 9
# HELP coord_redispatches_total Failed or timed-out dispatch attempts that were retried.
# TYPE coord_redispatches_total counter
coord_redispatches_total 10
# HELP coord_corrupt_artifacts_total Fetched artifacts rejected by config-hash verification (never merged).
# TYPE coord_corrupt_artifacts_total counter
coord_corrupt_artifacts_total 11
# HELP coord_breaker_opens_total Worker circuit-breaker open transitions.
# TYPE coord_breaker_opens_total counter
coord_breaker_opens_total 12
# HELP coord_workers Registered workers by breaker state.
# TYPE coord_workers gauge
coord_workers{breaker="closed"} 2
coord_workers{breaker="half-open"} 1
coord_workers{breaker="open"} 1
# HELP coord_journal_bytes Current size of the sweep journal file.
# TYPE coord_journal_bytes gauge
coord_journal_bytes 4321
`
