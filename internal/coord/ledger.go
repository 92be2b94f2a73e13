package coord

import (
	"context"
	"encoding/json"
	"fmt"

	"cache8t/internal/report"
	"cache8t/internal/server"
)

// LedgerTool is the Tool field the merged sweep ledger carries.
const LedgerTool = "sramd-coord"

// Ledger is the wire shape of a merged sweep result: the sweep's identity
// plus every point's canonical artifact, in decomposition order. It is the
// coordinator's unit of determinism: artifacts are slotted by point index,
// never by completion order, so any dispatch/completion interleaving merges
// to the same canonical bytes — the permutation-invariance property the
// merge tests pin.
type Ledger struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"`
	// SweepHash is the sha256 of the canonical sweep spec.
	SweepHash string `json:"sweep_hash"`
	Points    int    `json:"points"`
	// Artifacts holds one canonical per-point artifact per matrix cell, in
	// decomposition order.
	Artifacts []json.RawMessage `json:"artifacts"`
}

// MergeLedger assembles the canonical sweep ledger from per-point artifact
// bytes indexed by point position. It rejects a missing slot and an
// artifact that report.Decode refuses: undecodable JSON, another schema, or
// a config that does not match its embedded config hash. The dispatcher
// verifies config hashes before bytes get here; the re-check makes that a
// property of the merge itself. A changed counter value is merged: only
// recomputing the point could detect it.
func MergeLedger(sweepHash string, arts [][]byte) ([]byte, error) {
	raws := make([]json.RawMessage, len(arts))
	for i, a := range arts {
		if len(a) == 0 {
			return nil, fmt.Errorf("coord: merge: point %d has no artifact", i)
		}
		if _, err := report.Decode(a); err != nil {
			return nil, fmt.Errorf("coord: merge: point %d artifact: %w", i, err)
		}
		raws[i] = json.RawMessage(a)
	}
	return report.Canonical(Ledger{
		Schema:    report.SchemaVersion,
		Tool:      LedgerTool,
		SweepHash: sweepHash,
		Points:    len(arts),
		Artifacts: raws,
	})
}

// DecodeLedger parses merged ledger bytes, rejecting other schemas.
func DecodeLedger(b []byte) (*Ledger, error) {
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("coord: ledger: %w", err)
	}
	if l.Schema != report.SchemaVersion {
		return nil, fmt.Errorf("coord: ledger schema %d, want %d", l.Schema, report.SchemaVersion)
	}
	if l.Points != len(l.Artifacts) {
		return nil, fmt.Errorf("coord: ledger claims %d points but carries %d artifacts", l.Points, len(l.Artifacts))
	}
	return &l, nil
}

// ExecuteSerial is the in-process reference for a coordinated sweep:
// decompose, run every point serially in decomposition order through
// server.Execute (the same runner the workers use), merge. A coordinated
// fan-out of the same spec must produce byte-identical ledger bytes — the
// determinism contract extended one level up, gated by the coord tests and
// `make coord-smoke`.
func ExecuteSerial(ctx context.Context, spec SweepSpec) ([]byte, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	points, err := spec.Decompose()
	if err != nil {
		return nil, err
	}
	arts := make([][]byte, len(points))
	for i, p := range points {
		b, err := server.Execute(ctx, p.Spec, p.Source, nil)
		if err != nil {
			return nil, fmt.Errorf("coord: serial point %d: %w", p.Index, err)
		}
		arts[i] = b
	}
	return MergeLedger(hash, arts)
}
