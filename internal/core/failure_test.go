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
	hierCfg := hier.Config{L1Schemes: []core.Scheme{{Kind: core.WG}}, L1: cfg, L2Kind: core.RMW,
		L2: cache.Config{SizeBytes: 256 * 1024, Ways: 8, BlockBytes: 64, Policy: cache.LRU}}

	// An early snapshot, for the resumed runner.
	d, err := core.NewDriver(cfg, core.Scheme{Kind: core.WGRB})
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
		rd, err := core.ResumeDriver(blob, core.Scheme{Kind: core.WGRB}, cfg)
		if err != nil {
			return err
		}
		_, err = rd.Drain(ctx, s, 0, 0)
		return err
	}

	// schemes runs kinds through core.RunSchemes at batch and shards.
	schemes := func(batch, shards int, kinds ...core.Kind) func(context.Context, trace.Stream) error {
		return func(ctx context.Context, s trace.Stream) error {
			_, err := core.RunSchemes(ctx, core.Schemes(core.Options{}, kinds...), cfg,
				func() (trace.Stream, error) { return s, nil }, 0, batch, shards)
			return err
		}
	}
	runners := []struct {
		name string
		run  func(ctx context.Context, s trace.Stream) error
	}{
		{"serial", schemes(0, 0, core.WG)},
		{"streamed", schemes(7, 0, core.WGRB)},
		{"sharded", schemes(0, 2, core.RMW)},
		// WG's Set-Buffer crosses sets: its accountant stage must still
		// count every access the walks served before the decode failure.
		{"sharded-wg", schemes(0, 2, core.WG)},
		{"each-stream", schemes(0, 0, core.RMW, core.WG)},
		{"logged", func(ctx context.Context, s trace.Stream) error {
			_, _, err := core.RunLogged(ctx, core.RMW, cfg, core.Options{}, s, 0)
			return err
		}},
		{"resumed", resume},
		{"hier", func(ctx context.Context, s trace.Stream) error {
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
