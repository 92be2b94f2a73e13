package workload

import (
	"strings"
	"testing"

	"cache8t/internal/trace"
)

func testProfile(t *testing.T) Profile {
	t.Helper()
	ps := Profiles()
	if len(ps) == 0 {
		t.Fatal("no profiles")
	}
	return ps[0]
}

// The load-bearing property of the whole streaming pipeline: a streaming
// source and a materialized source over the same (profile, seed, n) yield
// byte-identical access sequences, every time they are opened.
func TestSourceStreamingMatchesMaterialized(t *testing.T) {
	prof := testProfile(t)
	const n = 5000
	mat := NewSource(prof, 42, n, false)
	str := NewSource(prof, 42, n, true)

	want, err := mat.Accesses()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("materialized %d accesses, want %d", len(want), n)
	}
	for open := 0; open < 3; open++ {
		s, err := str.Stream()
		if err != nil {
			t.Fatal(err)
		}
		got := trace.Collect(s, 0)
		if len(got) != n {
			t.Fatalf("open %d: streamed %d accesses, want %d", open, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("open %d: access %d = %v, want %v", open, i, got[i], want[i])
			}
		}
	}
}

func TestSourceMaterializedCachesOneSlice(t *testing.T) {
	src := NewSource(testProfile(t), 7, 100, false)
	a, err := src.Accesses()
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Accesses()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second Accesses call rematerialized the trace")
	}
	s1, err := src.Stream()
	if err != nil {
		t.Fatal(err)
	}
	got := trace.Collect(s1, 0)
	if len(got) != 100 || got[0] != a[0] {
		t.Fatalf("replayed stream disagrees with slice")
	}
}

func TestSourceStreamingRefusesAccesses(t *testing.T) {
	src := NewSource(testProfile(t), 7, 100, true)
	if _, err := src.Accesses(); err == nil {
		t.Fatal("streaming source handed out a materialized slice")
	}
}

func TestSourceUnboundedForcesStreaming(t *testing.T) {
	src := NewSource(testProfile(t), 7, 0, false)
	if _, err := src.Accesses(); err == nil {
		t.Fatal("unbounded source handed out a materialized slice; it must stream")
	}
	if src.N() != 0 {
		t.Fatalf("N = %d, want 0", src.N())
	}
}

func TestMaterializeCapFailsFast(t *testing.T) {
	old := MaterializeCap
	MaterializeCap = 1000
	defer func() { MaterializeCap = old }()

	prof := testProfile(t)
	if _, err := Take(prof, 1, 1001); err == nil || !strings.Contains(err.Error(), "-stream") {
		t.Fatalf("Take over cap: err = %v, want cap error naming -stream", err)
	}
	if _, err := Take(prof, 1, 1000); err != nil {
		t.Fatalf("Take at cap: %v", err)
	}
	// Streaming mode is exactly how to exceed the cap.
	src := NewSource(prof, 1, 2000, true)
	s, err := src.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(trace.Collect(s, 0)); got != 2000 {
		t.Fatalf("streamed %d accesses past the cap, want 2000", got)
	}
}
