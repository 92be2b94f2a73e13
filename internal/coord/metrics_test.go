package coord

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
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
