package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cache8t/internal/rng"
)

// TestCanonicalByteIdenticalAcrossMapOrder builds the same logical map with
// different insertion orders and checks the canonical bytes match: the
// property that makes goldens diffable with plain byte comparison.
func TestCanonicalByteIdenticalAcrossMapOrder(t *testing.T) {
	keys := []string{"zeta", "alpha", "mid", "beta", "omega", "kappa"}
	forward := map[string]float64{}
	for i, k := range keys {
		forward[k] = float64(i) * 1.25
	}
	backward := map[string]float64{}
	for i := len(keys) - 1; i >= 0; i-- {
		backward[keys[i]] = float64(i) * 1.25
	}
	a, err := Canonical(forward)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical(backward)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical bytes differ across insertion order:\n%s\nvs\n%s", a, b)
	}
}

// TestCanonicalStableAcrossRuns encodes the same artifact many times; any
// byte difference means map iteration order leaked into the encoding.
func TestCanonicalStableAcrossRuns(t *testing.T) {
	art := testArtifact(rng.New(7))
	first, err := Encode(art)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		again, err := Encode(art)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encode %d differs from first encode", i)
		}
	}
}

// TestCanonicalSortsNestedKeys checks deep maps sort at every level and the
// output ends with exactly one newline.
func TestCanonicalSortsNestedKeys(t *testing.T) {
	v := map[string]any{
		"b": map[string]any{"z": 1, "a": 2},
		"a": []any{map[string]any{"y": 1, "x": 2}},
	}
	got, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "a": [
    {
      "x": 2,
      "y": 1
    }
  ],
  "b": {
    "a": 2,
    "z": 1
  }
}
`
	if string(got) != want {
		t.Fatalf("canonical output:\n%q\nwant:\n%q", got, want)
	}
}

// TestCanonicalGoldensAreFixedPoints re-canonicalizes every golden file:
// each must come back as its own bytes, so a change to the encoder that
// would move a checked-in artifact fails here first.
func TestCanonicalGoldensAreFixedPoints(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no goldens found (err %v)", err)
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Canonical(json.RawMessage(want))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-canonicalized bytes differ from the file", path)
		}
	}
}

// TestCanonicalEdgeCasesPinned pins the encoding of empty containers, null,
// strings that need HTML escapes, struct fields out of key order, and
// floats at the edges of their literal forms.
func TestCanonicalEdgeCasesPinned(t *testing.T) {
	type fields struct {
		Zeta  string         `json:"zeta"`
		Alpha []any          `json:"alpha"`
		Empty map[string]int `json:"empty"`
		Big   float64        `json:"big"`
	}
	for _, tc := range []struct {
		in   any
		want string
	}{
		{map[string]any{}, "{}\n"},
		{[]any{}, "[]\n"},
		{nil, "null\n"},
		{map[string]any{"a<b": "x & y <tag>", "nil": nil, "empty": []int{}},
			"{\n  \"a\\u003cb\": \"x \\u0026 y \\u003ctag\\u003e\",\n  \"empty\": [],\n  \"nil\": null\n}\n"},
		{fields{Zeta: "</script>", Alpha: []any{1, "two", 3.5, nil, map[string]any{}}, Big: 1e300},
			"{\n  \"alpha\": [\n    1,\n    \"two\",\n    3.5,\n    null,\n    {}\n  ],\n  \"big\": 1e+300,\n  \"empty\": null,\n  \"zeta\": \"\\u003c/script\\u003e\"\n}\n"},
		{1e300, "1e+300\n"},
		{[]float64{0.1, 1e-7, 123456789012345678}, "[\n  0.1,\n  1e-7,\n  123456789012345680\n]\n"},
	} {
		got, err := Canonical(tc.in)
		if err != nil {
			t.Fatalf("%#v: %v", tc.in, err)
		}
		if string(got) != tc.want {
			t.Errorf("%#v:\n got %q\nwant %q", tc.in, got, tc.want)
		}
	}
}

// TestCanonicalRejectsNaN pins the error path for unencodable floats.
func TestCanonicalRejectsNaN(t *testing.T) {
	if _, err := Canonical(map[string]float64{"x": math.NaN()}); err == nil {
		t.Fatal("canonical accepted NaN")
	}
	if _, err := Canonical(map[string]float64{"x": math.Inf(1)}); err == nil {
		t.Fatal("canonical accepted +Inf")
	}
}

// TestHashDeterministic pins that equal values hash identically and
// different values do not collide trivially.
func TestHashDeterministic(t *testing.T) {
	h1, err := Hash(map[string]string{"a": "1", "b": "2"})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash(map[string]string{"b": "2", "a": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash differs for equal maps: %s vs %s", h1, h2)
	}
	h3, err := Hash(map[string]string{"a": "1", "b": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Fatal("hash collision for different maps")
	}
}

// TestRoundTripProperty is the property test: randomized artifacts survive
// Encode → Decode with every field intact, and re-encoding the decoded
// artifact reproduces the bytes exactly (encoding is a fixed point).
func TestRoundTripProperty(t *testing.T) {
	r := rng.New(42)
	for i := 0; i < 200; i++ {
		art := testArtifact(r)
		b, err := Encode(art)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("iter %d: decode: %v\nartifact: %s", i, err, b)
		}
		if !reflect.DeepEqual(art, back) {
			t.Fatalf("iter %d: round trip mutated artifact:\nin:  %+v\nout: %+v", i, art, back)
		}
		again, err := Encode(back)
		if err != nil {
			t.Fatalf("iter %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(b, again) {
			t.Fatalf("iter %d: re-encode not a fixed point:\n%s\nvs\n%s", i, b, again)
		}
	}
}

// testArtifact draws a randomized but valid artifact: random key sets and
// values, including negative, tiny, huge, and integer-valued floats.
func testArtifact(r *rng.Xoshiro256) *Artifact {
	a := New("test", r.Uint64())
	a.GitSHA = fmt.Sprintf("%016x", r.Uint64())
	for i, n := 0, 1+r.Intn(8); i < n; i++ {
		a.SetConfig(fmt.Sprintf("key_%d", r.Intn(50)), r.Intn(1000))
	}
	for i, n := 0, 1+r.Intn(20); i < n; i++ {
		var v float64
		switch r.Intn(4) {
		case 0:
			v = float64(r.Intn(1_000_000))
		case 1:
			v = -r.Float64()
		case 2:
			v = r.Float64() * 1e-9
		default:
			v = r.Float64() * 1e12
		}
		a.SetMetric(fmt.Sprintf("metric_%d", r.Intn(100)), v)
	}
	if r.Bool(0.5) {
		counters := map[string]uint64{}
		for i, n := 0, 1+r.Intn(6); i < n; i++ {
			counters[fmt.Sprintf("c%d", r.Intn(20))] = r.Uint64() >> 12
		}
		a.Controllers = append(a.Controllers, ControllerLedger{
			Controller: fmt.Sprintf("ctrl%d", r.Intn(4)),
			Counters:   counters,
		})
	}
	a.WallMS = float64(r.Intn(100000)) / 16
	return a
}
