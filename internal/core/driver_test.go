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

// TestDrainSourcePanicReachesCaller pins panic containment across Drain's
// decoder goroutine: a source that panics there panics the goroutine that
// called Drain, where a caller (the engine, sramd's job runner) can recover
// it, and the decoder has exited by the time it does.
func TestDrainSourcePanicReachesCaller(t *testing.T) {
	d, err := NewDriver(RMW, smallCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	accs := randomStream(3, 10_000, 8192)
	var served int
	src := trace.Func(func() (trace.Access, bool) {
		if served == 5000 {
			panic("source failed")
		}
		served++
		return accs[served-1], true
	})
	defer func() {
		if r := recover(); r != "source failed" {
			t.Fatalf("recovered %v, want the source's panic", r)
		}
	}()
	d.Drain(context.Background(), src, 0, 512)
	t.Fatal("Drain returned over a panicking source")
}

// TestDrainJoinsDecoderOnEarlyReturn pins that Drain's decoder goroutine
// has stopped reading the source by the time Drain returns on an early
// path, so a caller may close the trace file right away. The source counts
// its calls without synchronization: under the race detector, a decoder
// still running after Drain returns races with the read below.
func TestDrainJoinsDecoderOnEarlyReturn(t *testing.T) {
	accs := randomStream(4, 20_000, 8192)
	sinkErr := errors.New("sink full")
	for _, tc := range []struct {
		name string
		sink func(cancel context.CancelFunc) error
		want error
	}{
		{"sink error", func(context.CancelFunc) error { return sinkErr }, sinkErr},
		{"cancelled", func(cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		d, err := NewDriver(WG, smallCfg(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		d.CheckpointEvery(1, func([]byte, uint64) error { return tc.sink(cancel) })
		calls := 0
		src := trace.Func(func() (trace.Access, bool) {
			calls++
			return accs[calls%len(accs)], true
		})
		_, err = d.Drain(ctx, src, 0, 256)
		cancel()
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: Drain returned %v, want %v", tc.name, err, tc.want)
		}
		if calls < 256 {
			t.Fatalf("%s: source read %d times, want at least one batch", tc.name, calls)
		}
	}
}
