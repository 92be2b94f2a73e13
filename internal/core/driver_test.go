package core

import (
	"bytes"
	"context"
	"errors"
	"io"
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

func TestRunStreamSurfacesDecodeError(t *testing.T) {
	accs := randomStream(14, 2000, 8192)
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, trace.FromSlice(accs), 0); err != nil {
		t.Fatal(err)
	}
	// Dropping one byte always cuts mid-record (the shortest record is
	// several bytes), so the decode must fail rather than end cleanly.
	truncated := buf.Bytes()[:buf.Len()-1]
	_, err := RunStreamContext(context.Background(), RMW, smallCfg(), Options{}, trace.NewReader(bytes.NewReader(truncated)), 0, 128)
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StreamError", err)
	}
	if !errors.Is(se, io.ErrUnexpectedEOF) {
		t.Fatalf("unwrapped err = %v, want unexpected EOF", se.Err)
	}
	if se.Accesses == 0 || se.Accesses >= uint64(len(accs)) {
		t.Fatalf("StreamError.Accesses = %d out of (0, %d)", se.Accesses, len(accs))
	}
}

func TestRunStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunStreamContext(ctx, RMW, smallCfg(), Options{},
		trace.FromSlice(randomStream(15, 100, 4096)), 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
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
