package main

import (
	"strings"
	"testing"
)

// exposition is a /metrics body shaped like sramd's: HELP and TYPE lines,
// labelled series, values that share a prefix with a predicate's, and one
// sample whose value is not a number.
const exposition = `# HELP rescache_misses_total Submissions the cache could not serve.
# TYPE rescache_misses_total counter
rescache_misses_total 12
# HELP rescache_hits_total Submissions served from the cache by tier.
# TYPE rescache_hits_total counter
rescache_hits_total{tier="memory"} 1
rescache_hits_total{tier="disk"} 0
# HELP sramd_recovered_jobs_total Jobs restored from the journal.
# TYPE sramd_recovered_jobs_total counter
sramd_recovered_jobs_total 10
# HELP sramd_journal_bytes Journal size.
# TYPE sramd_journal_bytes gauge
sramd_journal_bytes 4096
sramd_torn_total lots
`

func TestCheckMetric(t *testing.T) {
	for _, tc := range []struct {
		pred    string
		wantErr string // "" means the predicate holds
	}{
		{`rescache_hits_total{tier="memory"} == 1`, ""},
		{`rescache_hits_total{tier="disk"} == 0`, ""},
		{`rescache_hits_total{tier="disk"} == 1`, `= 0, want == 1`},
		{"rescache_misses_total == 12", ""},
		// Substring matching would pass these two on 12 and 10.
		{"rescache_misses_total == 1", "= 12, want == 1"},
		{"sramd_recovered_jobs_total == 1", "= 10, want == 1"},
		{"sramd_journal_bytes >= 1", ""},
		{"sramd_journal_bytes >= 4096", ""},
		{"sramd_journal_bytes >= 4097", "= 4096, want >= 4097"},
		// Missing series: absent name, bare name of a labelled family, and a
		// label value that is not exposed.
		{"rescache_dedup_total == 0", "no rescache_dedup_total sample"},
		{"rescache_hits_total >= 0", "no rescache_hits_total sample"},
		{`rescache_hits_total{tier="remote"} == 0`, `no rescache_hits_total{tier="remote"} sample`},
		{"sramd_torn_total >= 0", "unparseable value"},
		// Malformed predicates.
		{"rescache_misses_total = 12", "bad /metrics predicate"},
		{"rescache_misses_total <= 12", "bad /metrics predicate"},
		{"rescache_misses_total ==", "bad /metrics predicate"},
		{"rescache_misses_total == twelve", "bad /metrics predicate"},
	} {
		err := checkMetric([]byte(exposition), tc.pred)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v, want it to hold", tc.pred, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.pred, err, tc.wantErr)
		}
	}
}

// TestScenarioTable pins the table's shape: unique names, every predicate
// well formed, and -update allowed only where a row owns its golden.
func TestScenarioTable(t *testing.T) {
	seen := map[string]bool{}
	owners := map[string]int{}
	for _, sc := range scenarios {
		if seen[sc.name] {
			t.Errorf("scenario %s appears twice", sc.name)
		}
		seen[sc.name] = true
		if sc.ownsGolden {
			owners[sc.golden]++
		}
		for _, pred := range sc.metrics {
			// On an empty body a well-formed predicate can only be missing.
			if err := checkMetric(nil, pred); err == nil || !strings.Contains(err.Error(), "sample") {
				t.Errorf("scenario %s: predicate %q: %v", sc.name, pred, err)
			}
		}
	}
	for _, sc := range scenarios {
		if owners[sc.golden] != 1 {
			t.Errorf("scenario %s: golden %s has %d owning rows, want 1", sc.name, sc.golden, owners[sc.golden])
		}
	}
}
