package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/hier"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// The failure-path half of the conformance suite: every runner that pulls a
// trace.Stream must fail the same way. A truncated binary trace is a
// *core.StreamError carrying the same clean-access count on every path — a
// decode error is never a silently shorter run — and a cancelled context is
// context.Canceled. It lives in the external test package so the
// two-level hierarchy, which runs on core's Driver, sits in the same table.

func TestConformanceFailures(t *testing.T) {
	prof, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(prof, 5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, trace.FromSlice(accs), 0); err != nil {
		t.Fatal(err)
	}
	// Dropping one byte always cuts the last record short, so exactly the
	// accesses before it decode cleanly.
	truncated := buf.Bytes()[:buf.Len()-1]
	cleanAccesses := uint64(len(accs) - 1)

	cfg := cache.DefaultConfig()
	hierCfg := hier.Config{L1Kind: core.WG, L1: cfg, L2Kind: core.RMW,
		L2: cache.Config{SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64, Policy: cache.LRU}}

	// An early snapshot, for the resumed runner.
	d, err := core.NewDriver(core.WGRB, cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	d.CheckpointEvery(1, func(b []byte, _ uint64) error {
		if blob == nil {
			blob = b
		}
		return nil
	})
	if _, err := d.Drain(context.Background(), trace.FromSlice(accs), 0, 256); err != nil {
		t.Fatal(err)
	}
	resume := func(ctx context.Context, s trace.Stream) error {
		rd, err := core.ResumeDriver(blob)
		if err != nil {
			return err
		}
		_, err = rd.Drain(ctx, s, 0, 0)
		return err
	}

	runners := []struct {
		name string
		// ignoresCtx marks runners without a context parameter.
		ignoresCtx bool
		run        func(ctx context.Context, s trace.Stream) error
	}{
		{"serial", false, func(ctx context.Context, s trace.Stream) error {
			_, err := core.RunContext(ctx, core.WG, cfg, core.Options{}, s, 0)
			return err
		}},
		{"streamed", false, func(ctx context.Context, s trace.Stream) error {
			_, err := core.RunStreamContext(ctx, core.WGRB, cfg, core.Options{}, s, 0, 7)
			return err
		}},
		{"sharded", false, func(ctx context.Context, s trace.Stream) error {
			_, err := core.RunShardedContext(ctx, core.RMW, cfg, core.Options{}, s, 0, 0, 2)
			return err
		}},
		{"each-stream", false, func(ctx context.Context, s trace.Stream) error {
			_, err := core.RunEachStream(ctx, []core.Kind{core.RMW, core.WG}, cfg, core.Options{},
				func() (trace.Stream, error) { return s, nil }, 0, 0, 0)
			return err
		}},
		{"logged", true, func(_ context.Context, s trace.Stream) error {
			_, _, err := core.RunLogged(core.RMW, cfg, core.Options{}, s, 0)
			return err
		}},
		{"resumed", false, resume},
		{"hier", false, func(ctx context.Context, s trace.Stream) error {
			_, err := hier.RunContext(ctx, hierCfg, s, 0, 0)
			return err
		}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range runners {
		t.Run(r.name+"/truncated", func(t *testing.T) {
			err := r.run(context.Background(), trace.NewReader(bytes.NewReader(truncated)))
			var se *core.StreamError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *core.StreamError", err)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want it to wrap io.ErrUnexpectedEOF", err)
			}
			if se.Accesses != cleanAccesses {
				t.Errorf("StreamError.Accesses = %d, want %d", se.Accesses, cleanAccesses)
			}
		})
		if r.ignoresCtx {
			continue
		}
		t.Run(r.name+"/cancelled", func(t *testing.T) {
			if err := r.run(cancelled, trace.FromSlice(accs)); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
	t.Run("resumed/short-stream", func(t *testing.T) {
		if err := resume(context.Background(), trace.FromSlice(accs[:100])); !errors.Is(err, core.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want core.ErrBadCheckpoint", err)
		}
	})
}
