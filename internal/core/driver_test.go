package core

import (
	"context"
	"errors"
	"testing"

	"cache8t/internal/trace"
)

func TestRunStreamHonorsMax(t *testing.T) {
	accs := randomStream(12, 5000, 8192)
	const max = 1234
	want, err := Run(WG, smallCfg(), Options{}, trace.FromSlice(accs[:max]), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStreamContext(context.Background(), WG, smallCfg(), Options{}, trace.FromSlice(accs), max, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "bounded run", got, want)
	if got.Requests.Accesses() != max {
		t.Fatalf("streamed %d accesses, want %d", got.Requests.Accesses(), max)
	}
}

// TestRunEachStreamMatchesRunAll pins the broadcast path under an access
// budget and an odd batch size: every kind stops at the same access.
func TestRunEachStreamMatchesRunAll(t *testing.T) {
	accs := randomStream(16, 4000, 8192)
	const max = 1234
	kinds := Kinds()
	want, err := RunAll(context.Background(), kinds, smallCfg(), Options{}, accs[:max])
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunEachStream(context.Background(), kinds, smallCfg(), Options{},
		func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, max, 333, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i, k := range kinds {
		requireResultsEqual(t, k.String(), got[i], want[i])
	}
}

func TestRunEachStreamPropagatesOpenError(t *testing.T) {
	wantErr := errors.New("open failed")
	_, err := RunEachStream(context.Background(), []Kind{RMW}, smallCfg(), Options{},
		func() (trace.Stream, error) { return nil, wantErr }, 0, 0, 0)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestDriverCountsFeeds(t *testing.T) {
	accs := randomStream(17, 100, 4096)
	d, err := NewDriver(WG, smallCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Feed(accs[:40])
	d.Feed(accs[40:])
	if d.Accesses() != uint64(len(accs)) {
		t.Fatalf("Accesses = %d, want %d", d.Accesses(), len(accs))
	}
	r := d.Finish()
	if r.Requests.Accesses() != uint64(len(accs)) {
		t.Fatalf("finalized %d requests, want %d", r.Requests.Accesses(), len(accs))
	}
}
