package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cache8t/internal/report"
	"cache8t/internal/server"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// TestReportMatchesServeGolden runs the spec golden/serve.json records
// through sramsim's flags: the report must hash and compare like the
// daemon's artifact of that spec, ledger, metrics and config alike, at
// zero tolerance.
func TestReportMatchesServeGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	var out bytes.Buffer
	if err := run([]string{"-workload", "bwaves", "-controller", "wgrb", "-n", "50000", "-report", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "report written to "+path) {
		t.Fatalf("stdout does not name the report:\n%s", out.String())
	}
	got, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := report.ReadFile(filepath.Join("..", "..", "golden", "serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "sramsim" || got.WallMS <= 0 {
		t.Errorf("tool %q, wall_ms %v: want sramsim and a wall-clock", got.Tool, got.WallMS)
	}
	if got.ConfigHash != golden.ConfigHash {
		t.Errorf("config hash %.16s, golden %.16s", got.ConfigHash, golden.ConfigHash)
	}
	if d := report.Compare(golden, got, report.Bands{}); !d.OK() {
		t.Fatalf("report differs from golden/serve.json: config keys %v, metrics %+v", d.ConfigMismatch, d.Failures())
	}
}

// TestRefusesWhatSramdRefuses holds sramsim to JobSpec.Validate: a shard
// request the cache cannot honour and one whose shards' caches exceed the
// service cap both fail with shards field errors, before anything runs.
func TestRefusesWhatSramdRefuses(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4", "-policy", "random", "-n", "1000"},
		{"-size", "65536", "-shards", "2", "-n", "1000"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		var se *server.SpecError
		if !errors.As(err, &se) {
			t.Fatalf("%v: err = %v, want a *server.SpecError", args, err)
		}
		for _, f := range se.Fields {
			if f.Field != "shards" {
				t.Errorf("%v: field error %s: %s, want only shards", args, f.Field, f.Msg)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result before refusing:\n%s", args, out.String())
		}
	}
}

// TestTruncatedTraceFails replays a trace cut inside its last record. The v1
// format has no record count, so a cut on a record boundary would read as a
// valid, shorter trace; a cut inside one must fail the run with the count of
// accesses decoded cleanly, and print no result.
func TestTruncatedTraceFails(t *testing.T) {
	const n = 1000
	prof, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(prof, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every record ends in a varint after its head byte, so dropping the
	// last byte cuts the last record.
	path := filepath.Join(t.TempDir(), "cut.c8tt")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-1], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-trace", path, "-controller", "wg"}, &out)
	if err == nil || !strings.Contains(err.Error(), "trace decode failed after 999 accesses") {
		t.Fatalf("err = %v, want trace decode failed after 999 accesses", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for a truncated trace:\n%s", out.String())
	}
}
