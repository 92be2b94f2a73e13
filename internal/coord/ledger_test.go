package coord

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"cache8t/internal/server"
)

// buildArts runs every point of spec serially and returns the per-point
// artifact bytes in decomposition order, plus the sweep hash.
func buildArts(t *testing.T, spec SweepSpec) (string, [][]byte) {
	t.Helper()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	arts := make([][]byte, len(points))
	for i, p := range points {
		b, err := server.Execute(context.Background(), p.Spec, p.Source, nil)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		arts[i] = b
	}
	return hash, arts
}

func TestMergeLedgerPermutationInvariant(t *testing.T) {
	// The coordinator's half of the determinism contract: artifacts are
	// slotted by point index, so ANY completion order fills the slot table
	// to the same canonical ledger bytes. This is the quick-check over
	// randomized completion orders; the fault and e2e tests exercise the
	// same property through real scheduling.
	spec := SweepSpec{
		Controllers: []string{"rmw", "wgrb"},
		Workloads:   []string{"bwaves"},
		Seeds:       []uint64{1, 2},
		N:           300,
	}
	hash, arts := buildArts(t, spec)
	want, err := MergeLedger(hash, arts)
	if err != nil {
		t.Fatal(err)
	}

	pr := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		slots := make([][]byte, len(arts))
		for _, i := range pr.Perm(len(arts)) {
			slots[i] = arts[i] // completion in permuted order, slotting by index
		}
		got, err := MergeLedger(hash, slots)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: permuted completion order changed the merged bytes", trial)
		}
	}

	serial, err := ExecuteSerial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, want) {
		t.Fatal("ExecuteSerial differs from MergeLedger over the same artifacts")
	}

	l, err := DecodeLedger(want)
	if err != nil {
		t.Fatal(err)
	}
	if l.SweepHash != hash || l.Points != len(arts) || l.Tool != LedgerTool {
		t.Fatalf("decoded ledger header %+v", l)
	}
}

func TestMergeLedgerRejectsHolesAndCorruption(t *testing.T) {
	spec := tinySweep(1, 2)
	hash, arts := buildArts(t, spec)

	hole := make([][]byte, len(arts))
	copy(hole, arts)
	hole[1] = nil
	if _, err := MergeLedger(hash, hole); err == nil {
		t.Fatal("merged a ledger with a missing artifact")
	}

	// Damage a config value, which report.Decode verifies against the
	// embedded config hash. A changed counter would still merge: only
	// recomputing the point could tell.
	corrupt := make([][]byte, len(arts))
	copy(corrupt, arts)
	corrupt[0] = bytes.Replace(arts[0], []byte(`"controller": "wgrb"`), []byte(`"controller": "wgrA"`), 1)
	if bytes.Equal(corrupt[0], arts[0]) {
		t.Fatalf("artifact has no controller config value to corrupt:\n%s", arts[0])
	}
	if _, err := MergeLedger(hash, corrupt); err == nil {
		t.Fatal("merged a ledger containing a corrupt artifact")
	}
}

func TestDecodeLedgerRejectsBadHeaders(t *testing.T) {
	if _, err := DecodeLedger([]byte(`{`)); err == nil {
		t.Fatal("decoded malformed JSON")
	}
	if _, err := DecodeLedger([]byte(`{"schema":99,"tool":"sramd-coord","points":0,"artifacts":[]}`)); err == nil {
		t.Fatal("decoded wrong schema")
	}
	if _, err := DecodeLedger([]byte(`{"schema":1,"tool":"sramd-coord","points":3,"artifacts":[]}`)); err == nil {
		t.Fatal("decoded points/artifacts mismatch")
	}
}
