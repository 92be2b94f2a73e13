package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// Canonical renders v as canonical JSON: object keys sorted, two-space
// indentation, a trailing newline, and number literals preserved exactly as
// encoding/json produces them. Two calls on equal values yield byte-identical
// output regardless of map iteration order, which is what makes golden
// artifacts diffable with plain byte comparison and git.
//
// v is first round-tripped through encoding/json, so anything marshalable is
// accepted; NaN and infinities are rejected there with the usual
// UnsupportedValueError.
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
	var b bytes.Buffer
	if err := writeCanonical(&b, tree, 0); err != nil {
		return nil, err
	}
	b.WriteByte('\n')
	// Servers keep every job's artifact; trim the buffer's growth slack.
	return bytes.Clone(b.Bytes()), nil
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

// writeCanonical emits one JSON value. The tree comes from a json.Decoder
// with UseNumber, so the only container types are map[string]any and []any,
// and numbers arrive as json.Number literals that are written back verbatim.
func writeCanonical(b *bytes.Buffer, v any, depth int) error {
	switch t := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		if t {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case json.Number:
		b.WriteString(t.String())
	case string:
		esc, err := json.Marshal(t)
		if err != nil {
			return fmt.Errorf("report: canonical: %w", err)
		}
		b.Write(esc)
	case []any:
		if len(t) == 0 {
			b.WriteString("[]")
			return nil
		}
		b.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			newline(b, depth+1)
			if err := writeCanonical(b, e, depth+1); err != nil {
				return err
			}
		}
		newline(b, depth)
		b.WriteByte(']')
	case map[string]any:
		if len(t) == 0 {
			b.WriteString("{}")
			return nil
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			newline(b, depth+1)
			esc, err := json.Marshal(k)
			if err != nil {
				return fmt.Errorf("report: canonical: %w", err)
			}
			b.Write(esc)
			b.WriteString(": ")
			if err := writeCanonical(b, t[k], depth+1); err != nil {
				return err
			}
		}
		newline(b, depth)
		b.WriteByte('}')
	default:
		return fmt.Errorf("report: canonical: unexpected decoded type %T", v)
	}
	return nil
}

func newline(b *bytes.Buffer, depth int) {
	b.WriteByte('\n')
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}
