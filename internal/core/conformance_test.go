package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// The conformance suite: one table of execution paths, every one of which
// must reproduce, byte for byte, the Result of feeding the same accesses to
// a freshly built controller one Access call at a time. The corpus is the
// oracle suite's traces and ablations, the metamorphic suite's mutated
// traces, and the stochastic-replacement and no-write-allocate shapes whose
// state is the hardest to checkpoint. A new execution path earns its place
// in the repository by passing every row here.

// conformanceInput is one corpus entry: the kinds to run and what to run
// them over.
type conformanceInput struct {
	name  string
	kinds []Kind
	cfg   cache.Config
	opts  Options
	accs  []trace.Access
}

// conformanceRow is one execution path. run executes in.accs for every kind
// of in.kinds and reports each Result it produced under the kind it was
// meant to be for (a path may report several Results per kind).
type conformanceRow struct {
	name string
	run  func(in conformanceInput, got func(k Kind, res Result)) error
}

func conformanceCorpus() []conformanceInput {
	var in []conformanceInput
	for seed := uint64(1); seed <= 3; seed++ {
		accs := randomStream(seed, 4000, 1<<13)
		in = append(in, conformanceInput{fmt.Sprintf("oracle/seed%d", seed), Kinds(), smallCfg(), Options{}, accs})
		for _, oc := range oracleCases() {
			if oc.opts != (Options{}) {
				in = append(in, conformanceInput{fmt.Sprintf("oracle/%s/seed%d", oc.name, seed), []Kind{oc.kind}, smallCfg(), oc.opts, accs})
			}
		}
		base := randomStream(seed, 3000, 1<<13)
		metamorphic := []Kind{RMW, WG, WGRB, KindTS}
		in = append(in,
			conformanceInput{fmt.Sprintf("silent-dup/seed%d", seed), metamorphic, smallCfg(), Options{}, withSilentDuplicates(base)},
			conformanceInput{fmt.Sprintf("read-dup/seed%d", seed), metamorphic, smallCfg(), Options{}, withDuplicateReads(base)},
		)
	}
	random := smallCfg()
	random.Policy = cache.Random
	random.Seed = 42
	noalloc := smallCfg()
	noalloc.Policy = cache.TreePLRU
	noalloc.NoWriteAllocate = true
	accs := randomStream(11, 6000, 8192)
	return append(in,
		conformanceInput{"random-depth2", Kinds(), random, Options{BufferDepth: 2}, accs},
		conformanceInput{"plru-noalloc", Kinds(), noalloc, Options{DisableSilentElision: true, CountFillTraffic: true}, accs},
	)
}

// perKind lifts a single-kind runner into a row body.
func perKind(run func(k Kind, in conformanceInput) (Result, error)) func(conformanceInput, func(Kind, Result)) error {
	return func(in conformanceInput, got func(Kind, Result)) error {
		for _, k := range in.kinds {
			res, err := run(k, in)
			if err != nil {
				return fmt.Errorf("%v: %w", k, err)
			}
			got(k, res)
		}
		return nil
	}
}

// encodeBinary writes accs as a binary trace.
func encodeBinary(accs []trace.Access) []byte {
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, trace.FromSlice(accs), 0); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func conformanceRows() []conformanceRow {
	ctx := context.Background()
	rows := []conformanceRow{
		{"serial", perKind(func(k Kind, in conformanceInput) (Result, error) {
			return Run(k, in.cfg, in.opts, trace.FromSlice(in.accs), 0)
		})},
	}
	for _, bs := range []int{1, 7, 512, 0} {
		rows = append(rows,
			conformanceRow{fmt.Sprintf("streamed/slice/batch%d", bs), perKind(func(k Kind, in conformanceInput) (Result, error) {
				return RunStreamContext(ctx, k, in.cfg, in.opts, trace.FromSlice(in.accs), 0, bs)
			})},
			conformanceRow{fmt.Sprintf("streamed/reader/batch%d", bs), perKind(func(k Kind, in conformanceInput) (Result, error) {
				r := trace.NewReader(bytes.NewReader(encodeBinary(in.accs)))
				return RunStreamContext(ctx, k, in.cfg, in.opts, r, 0, bs)
			})},
		)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		rows = append(rows, conformanceRow{fmt.Sprintf("sharded/%d", shards), perKind(func(k Kind, in conformanceInput) (Result, error) {
			return RunShardedContext(ctx, k, in.cfg, in.opts, trace.FromSlice(in.accs), 0, 0, shards)
		})})
	}
	rows = append(rows,
		// A straight run snapshotting at every batch boundary (snapshotting
		// must not perturb it), then a resume from each snapshot at a batch
		// size whose boundaries never line up with the original ones.
		conformanceRow{"resumed", func(in conformanceInput, got func(Kind, Result)) error {
			for _, k := range in.kinds {
				d, err := NewDriver(k, in.cfg, in.opts)
				if err != nil {
					return err
				}
				var blobs [][]byte
				d.CheckpointEvery(1, func(blob []byte, _ uint64) error {
					blobs = append(blobs, blob)
					return nil
				})
				straight, err := d.Drain(ctx, trace.FromSlice(in.accs), 0, 257)
				if err != nil {
					return err
				}
				got(k, straight)
				for i, blob := range blobs {
					rd, err := ResumeDriver(blob)
					if err != nil {
						return fmt.Errorf("%v snapshot %d: %w", k, i, err)
					}
					res, err := rd.Drain(ctx, trace.FromSlice(in.accs), 0, 97)
					if err != nil {
						return fmt.Errorf("%v resume from snapshot %d: %w", k, i, err)
					}
					got(k, res)
				}
			}
			return nil
		}},
		conformanceRow{"all", func(in conformanceInput, got func(Kind, Result)) error {
			res, err := RunAll(ctx, in.kinds, in.cfg, in.opts, in.accs)
			for i, r := range res {
				got(in.kinds[i], r)
			}
			return err
		}},
		conformanceRow{"logged", perKind(func(k Kind, in conformanceInput) (Result, error) {
			res, log, err := RunLogged(k, in.cfg, in.opts, trace.FromSlice(in.accs), 0)
			if err == nil && len(log) != len(in.accs) {
				err = fmt.Errorf("logged %d port ops for %d accesses", len(log), len(in.accs))
			}
			return res, err
		})},
	)
	for _, shards := range []int{0, 4} {
		rows = append(rows, conformanceRow{fmt.Sprintf("each-stream/shards%d", shards), func(in conformanceInput, got func(Kind, Result)) error {
			open := func() (trace.Stream, error) { return trace.FromSlice(in.accs), nil }
			res, err := RunEachStream(ctx, in.kinds, in.cfg, in.opts, open, 0, 0, shards)
			if err == nil && len(res) != len(in.kinds) {
				err = fmt.Errorf("%d results for %d kinds", len(res), len(in.kinds))
			}
			for i, r := range res {
				got(in.kinds[i], r)
			}
			return err
		}})
	}
	return rows
}

// referenceResult feeds accs to a fresh controller one Access at a time —
// the definition every execution path is held to.
func referenceResult(t *testing.T, k Kind, cfg cache.Config, opts Options, accs []trace.Access) Result {
	t.Helper()
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(k, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		ctrl.Access(a)
	}
	return ctrl.Finalize()
}

func TestConformance(t *testing.T) {
	rows := conformanceRows()
	for _, in := range conformanceCorpus() {
		want := map[Kind]Result{}
		for _, k := range in.kinds {
			want[k] = referenceResult(t, k, in.cfg, in.opts, in.accs)
		}
		for _, row := range rows {
			t.Run(in.name+"/"+row.name, func(t *testing.T) {
				reported := map[Kind]int{}
				err := row.run(in, func(k Kind, res Result) {
					reported[k]++
					requireResultsEqual(t, fmt.Sprintf("%v #%d", k, reported[k]), res, want[k])
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range in.kinds {
					if reported[k] == 0 {
						t.Errorf("%v: no result reported", k)
					}
				}
			})
		}
	}
}

// requireResultsEqual compares two Results field-for-field, including the
// full circuit-level event ledger.
func requireResultsEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Controller != want.Controller {
		t.Errorf("%s: controller %v, want %v", label, got.Controller, want.Controller)
	}
	if got.Geometry != want.Geometry {
		t.Errorf("%s: geometry %+v, want %+v", label, got.Geometry, want.Geometry)
	}
	if got.Requests != want.Requests {
		t.Errorf("%s: requests %+v, want %+v", label, got.Requests, want.Requests)
	}
	if got.Cache != want.Cache {
		t.Errorf("%s: cache stats %+v, want %+v", label, got.Cache, want.Cache)
	}
	if got.Counters != want.Counters {
		t.Errorf("%s: counters %+v, want %+v", label, got.Counters, want.Counters)
	}
	if got.ArrayReads != want.ArrayReads || got.ArrayWrites != want.ArrayWrites {
		t.Errorf("%s: array traffic %d/%d, want %d/%d",
			label, got.ArrayReads, got.ArrayWrites, want.ArrayReads, want.ArrayWrites)
	}
	if got.LocalWriteback != want.LocalWriteback {
		t.Errorf("%s: local writeback %v, want %v", label, got.LocalWriteback, want.LocalWriteback)
	}
	if got.Events == nil || want.Events == nil {
		t.Fatalf("%s: missing event ledger", label)
	}
	for _, e := range sram.Events() {
		if g, w := got.Events.Count(e), want.Events.Count(e); g != w {
			t.Errorf("%s: event %v count %d, want %d", label, e, g, w)
		}
	}
}
