package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"cache8t/internal/trace"
)

func TestRunStreamHonorsMax(t *testing.T) {
	accs := randomStream(12, 5000, 8192)
	const max = 1234
	want, err := runOne(WG, smallCfg(), Options{}, trace.FromSlice(accs[:max]), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOne(WG, smallCfg(), Options{}, trace.FromSlice(accs), max)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, "bounded run", got, want)
	if got.Requests.Accesses() != max {
		t.Fatalf("streamed %d accesses, want %d", got.Requests.Accesses(), max)
	}
}

// TestRunSchemesMatchesSeparateRuns pins the walk-once path under an access
// budget and an odd batch size against each scheme run on its own: every
// scheme, whatever its options, stops at the same access.
func TestRunSchemesMatchesSeparateRuns(t *testing.T) {
	accs := randomStream(16, 4000, 8192)
	const max = 1234
	schemes := append(Schemes(Options{}, Kinds()...), Scheme{WGRB, Options{BufferDepth: 4}}, Scheme{RMW, Options{CountFillTraffic: true}})
	want := make([]Result, len(schemes))
	for i, sc := range schemes {
		var err error
		if want[i], err = runOne(sc.Kind, smallCfg(), sc.Opts, trace.FromSlice(accs[:max]), 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := RunSchemes(context.Background(), schemes, smallCfg(),
		func() (trace.Stream, error) { return trace.FromSlice(accs), nil }, max, 333, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i, sc := range schemes {
		requireResultsEqual(t, fmt.Sprintf("%v%+v", sc.Kind, sc.Opts), got[i], want[i])
	}
}

func TestRunSchemesPropagatesOpenError(t *testing.T) {
	wantErr := errors.New("open failed")
	_, err := RunSchemes(context.Background(), []Scheme{{Kind: RMW}}, smallCfg(),
		func() (trace.Stream, error) { return nil, wantErr }, 0, 0, 0)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// An empty scheme list is refused before the stream is opened.
	if _, err := RunSchemes(context.Background(), nil, smallCfg(),
		func() (trace.Stream, error) { return nil, wantErr }, 0, 0, 0); err == nil || errors.Is(err, wantErr) {
		t.Fatalf("no schemes: err = %v, want a refusal before open", err)
	}
}

func TestDriverCountsFeeds(t *testing.T) {
	accs := randomStream(17, 100, 4096)
	d, err := NewDriver(smallCfg(), Scheme{Kind: WG})
	if err != nil {
		t.Fatal(err)
	}
	d.Feed(accs[:40])
	d.Feed(accs[40:])
	if d.Accesses() != uint64(len(accs)) {
		t.Fatalf("Accesses = %d, want %d", d.Accesses(), len(accs))
	}
	r := d.Finish()[0]
	if r.Requests.Accesses() != uint64(len(accs)) {
		t.Fatalf("finalized %d requests, want %d", r.Requests.Accesses(), len(accs))
	}
}

// TestDrainSourcePanicReachesCaller pins panic containment across every
// fan-out's goroutines: a source that panics on the decoder goroutine, a
// walk that panics on its shard's goroutine, or an accountant that panics
// on the accountant stage's goroutine panics the goroutine that called the
// runner, where a caller (the engine, sramd's job runner) can recover it,
// instead of killing the process. The sharded cases run RMW and WG, whose
// Set-Buffer state crosses sets.
func TestDrainSourcePanicReachesCaller(t *testing.T) {
	ctx := context.Background()
	accs := randomStream(3, 10_000, 8192)
	// panicking serves accs and panics at access 5,000.
	panicking := func() trace.Stream {
		var served int
		return trace.Func(func() (trace.Access, bool) {
			if served == 5000 {
				panic("source failed")
			}
			served++
			return accs[served-1], true
		})
	}
	type panicCase struct {
		name string
		run  func() error
		want any
	}
	cases := []panicCase{
		{"drain", func() error {
			_, err := RunSchemes(ctx, []Scheme{{Kind: RMW}}, smallCfg(),
				func() (trace.Stream, error) { return panicking(), nil }, 0, 512, 0)
			return err
		}, "source failed"},
		{"each-stream", func() error {
			_, err := RunSchemes(ctx, Schemes(Options{}, RMW, WG), smallCfg(),
				func() (trace.Stream, error) { return panicking(), nil }, 0, 512, 0)
			return err
		}, "source failed"},
		{"kind controller", func() error {
			r, err := newShardRun(smallCfg(), 2, Schemes(Options{}, RMW, WG)...)
			if err != nil {
				return err
			}
			r.accts[1] = &panicAcct{accountant: r.accts[1], left: 5}
			_, err = r.run(ctx, trace.FromSlice(accs), 0, 512)
			return err
		}, "controller failed"},
	}
	for _, k := range []Kind{RMW, WG} {
		suffix := ""
		if k != RMW {
			suffix = " " + k.String()
		}
		cases = append(cases,
			panicCase{"sharded" + suffix, func() error {
				_, err := RunSchemes(ctx, []Scheme{{Kind: k}}, smallCfg(),
					func() (trace.Stream, error) { return panicking(), nil }, 0, 512, 2)
				return err
			}, "source failed"},
			panicCase{"shard controller" + suffix, func() error {
				r, err := newShardRun(smallCfg(), 2, Scheme{Kind: k})
				if err != nil {
					return err
				}
				r.walks[1].cache.SetListener(&panicFill{left: 200})
				_, err = r.run(ctx, trace.FromSlice(accs), 0, 512)
				return err
			}, "controller failed"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			p := recovered(func() { err = tc.run() })
			if p != tc.want {
				t.Fatalf("recovered %v (err %v), want the panic %q", p, err, tc.want)
			}
		})
	}
}

// recovered runs fn and returns what it panicked with (nil if it returned).
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// panicFill is a cache listener that panics on the fill after left fills.
// It yields on each fill, so the other goroutines run ahead and wait on
// the decoder, which waits on this walk's feed, when the panic comes.
type panicFill struct{ left int }

func (l *panicFill) Fill(uint64) {
	if l.left == 0 {
		panic("controller failed")
	}
	l.left--
	runtime.Gosched()
}

func (l *panicFill) Writeback(uint64, []byte) {}

// panicAcct charges left batches through its accountant, then panics,
// yielding after each batch as panicFill does.
type panicAcct struct {
	accountant
	left int
}

func (a *panicAcct) account(accs []trace.Access, outs []outcome) {
	if a.left == 0 {
		panic("controller failed")
	}
	a.left--
	runtime.Gosched()
	a.accountant.account(accs, outs)
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
		d, err := NewDriver(smallCfg(), Scheme{Kind: WG})
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
