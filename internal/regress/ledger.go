package regress

import (
	"encoding/json"
	"fmt"
	"os"

	"cache8t/internal/report"
)

// AppendLedger appends entry to the JSON array at path (created when
// missing), rewriting the file canonically so the trajectory stays
// machine-readable and diff-friendly. Existing entries are carried through
// as raw JSON, so ledgers may hold heterogeneous entry shapes — e.g.
// BENCH_core.json keeps the records older commits wrote before
// ThroughputEntry existed — and appending one shape never strips fields
// from another.
func AppendLedger(path string, entry any) error {
	var entries []json.RawMessage
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &entries); err != nil {
			return fmt.Errorf("regress: %s: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return fmt.Errorf("regress: %w", err)
	}
	enc, err := report.Canonical(entry)
	if err != nil {
		return err
	}
	entries = append(entries, enc)
	out, err := report.Canonical(entries)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("regress: %w", err)
	}
	return nil
}
