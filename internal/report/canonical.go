package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
)

// Canonical renders v as canonical JSON: object keys sorted, two-space
// indentation, a trailing newline, and number literals preserved exactly as
// encoding/json produces them. Two calls on equal values yield byte-identical
// output regardless of map iteration order, which is what makes golden
// artifacts diffable with plain byte comparison and git.
//
// v is first round-tripped through encoding/json, so anything marshalable is
// accepted; NaN and infinities are rejected there with the usual
// UnsupportedValueError. The round trip decodes numbers as json.Number and
// objects as maps, which encoding/json writes back verbatim and with sorted
// keys.
func Canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("report: canonical: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("report: canonical: %w", err)
	}
	b, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: canonical: %w", err)
	}
	// Servers keep every job's artifact: allocate exactly, no growth slack.
	return slices.Concat(b, []byte("\n")), nil
}

// Hash returns the hex sha256 of v's canonical encoding — the content
// address used for config/workload hashes.
func Hash(v any) (string, error) {
	b, err := Canonical(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
