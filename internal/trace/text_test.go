package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// parseText drains a TextReader over r: what it decoded, and its Err.
func parseText(r io.Reader) ([]Access, error) {
	tr := NewTextReader(r)
	out := Collect(tr, 0)
	return out, tr.Err()
}

func TestParseTextBasics(t *testing.T) {
	src := `
# a hand-written trace
R 0x1000 8
W 0x1008 8 0x2a
W 0x1010 4 42 gap=3   # trailing comment
r 512 2
`
	got, err := parseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []Access{
		{Kind: Read, Addr: 0x1000, Size: 8},
		{Kind: Write, Addr: 0x1008, Size: 8, Data: 0x2a},
		{Kind: Write, Addr: 0x1010, Size: 4, Data: 42, Gap: 3},
		{Kind: Read, Addr: 512, Size: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []string{
		"X 0x100 8",        // bad kind
		"R 0x100",          // missing size
		"R zz 8",           // bad address
		"R 0x100 3",        // bad size
		"W 0x100 8",        // write without data
		"W 0x100 8 zz",     // bad data
		"R 0x100 8 gap=zz", // bad gap
		"R 0x100 8 bogus",  // unexpected field
	}
	for _, src := range cases {
		if _, err := parseText(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	in := sampleAccesses(200)
	var buf bytes.Buffer
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := parseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d != %d", len(out), len(in))
	}
	for i := range in {
		want := in[i]
		if want.Kind == Read {
			// The text format deliberately omits read data values (they
			// are observations, not inputs; only write data feeds
			// silent-store detection).
			want.Data = 0
		}
		if want != out[i] {
			t.Fatalf("record %d: %+v != %+v", i, out[i], want)
		}
	}
}

func TestParseTextEmpty(t *testing.T) {
	got, err := parseText(strings.NewReader("# only comments\n\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty parse: %v, %v", got, err)
	}
}
