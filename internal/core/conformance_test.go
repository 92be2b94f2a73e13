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
// a freshly built frozen reference controller (reference_test.go) one
// Access call at a time. The corpus is the oracle suite's traces and
// ablations, every kind under each ablation option set, the metamorphic
// suite's mutated traces, and the stochastic-replacement and
// no-write-allocate shapes whose state is the hardest to checkpoint. A new
// execution path earns its place in the repository by passing every row
// here.

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
// meant to be for (a path may report several Results per kind), with the
// run's flushed memory image where the path exposes one.
type conformanceRow struct {
	name string
	run  func(in conformanceInput, got reportFunc) error
}

// reportFunc takes one Result a row produced for kind k, and the run's
// flushed memory image or nil.
type reportFunc func(k Kind, res Result, img *mem.Memory)

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
	// Every kind under each ablation option set, so the walk-once rows see
	// each one.
	for i, opts := range []Options{{BufferDepth: 2}, {BufferDepth: 4}, {DisableSilentElision: true}, {CountFillTraffic: true}} {
		in = append(in, conformanceInput{"options/" + optionsName(opts), Kinds(), smallCfg(), opts, randomStream(uint64(20+i), 4000, 1<<13)})
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

// optionsName labels an ablation option set.
func optionsName(o Options) string {
	switch {
	case o.BufferDepth > 0:
		return fmt.Sprintf("depth%d", o.BufferDepth)
	case o.DisableSilentElision:
		return "nosilent"
	default:
		return "filltraffic"
	}
}

// perKind lifts a single-kind runner into a row body.
func perKind(run func(k Kind, in conformanceInput) (Result, error)) func(conformanceInput, reportFunc) error {
	return func(in conformanceInput, got reportFunc) error {
		for _, k := range in.kinds {
			res, err := run(k, in)
			if err != nil {
				return fmt.Errorf("%v: %w", k, err)
			}
			got(k, res, nil)
		}
		return nil
	}
}

// eachStream runs every kind of in through RunEachStream in one call.
func eachStream(in conformanceInput, got reportFunc, batch, shards int) error {
	open := func() (trace.Stream, error) { return trace.FromSlice(in.accs), nil }
	res, err := RunEachStream(context.Background(), in.kinds, in.cfg, in.opts, open, 0, batch, shards)
	if err == nil && len(res) != len(in.kinds) {
		err = fmt.Errorf("%d results for %d kinds", len(res), len(in.kinds))
	}
	for i, r := range res {
		got(in.kinds[i], r, nil)
	}
	return err
}

// shardedRow runs in over shards walks: every kind in one run (together),
// or one run per kind. It asserts that the plan shards unless shards <= 1
// or the policy is Random, and reports each sharded run's memory image,
// combined from its walks.
func shardedRow(shards int, together bool) func(conformanceInput, reportFunc) error {
	return func(in conformanceInput, got reportFunc) error {
		want := shards
		if shards <= 1 || in.cfg.Policy == cache.Random {
			want = 1
		}
		if plan := PlanShards(in.kinds[0], in.cfg, shards); plan.Shards != want {
			return fmt.Errorf("plan %+v, want %d shards", plan, want)
		}
		groups := [][]Kind{in.kinds}
		if !together {
			groups = nil
			for _, k := range in.kinds {
				groups = append(groups, []Kind{k})
			}
		}
		for _, kinds := range groups {
			if want == 1 {
				sub := in
				sub.kinds = kinds
				if err := eachStream(sub, got, 0, shards); err != nil {
					return err
				}
				continue
			}
			r, err := newShardRun(in.cfg, in.opts, want, kinds...)
			if err != nil {
				return err
			}
			res, err := r.run(context.Background(), trace.FromSlice(in.accs), 0, 0)
			if err != nil {
				return err
			}
			img := shardImage(r)
			for i, k := range kinds {
				got(k, res[i], img)
			}
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
		rows = append(rows, conformanceRow{fmt.Sprintf("sharded/%d", shards), shardedRow(shards, false)})
	}
	rows = append(rows,
		// A straight run snapshotting at every batch boundary (snapshotting
		// must not perturb it), then a resume from each snapshot at a batch
		// size whose boundaries never line up with the original ones.
		conformanceRow{"resumed", func(in conformanceInput, got reportFunc) error {
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
				got(k, straight, nil)
				for i, blob := range blobs {
					rd, err := ResumeDriver(blob)
					if err != nil {
						return fmt.Errorf("%v snapshot %d: %w", k, i, err)
					}
					res, err := rd.Drain(ctx, trace.FromSlice(in.accs), 0, 97)
					if err != nil {
						return fmt.Errorf("%v resume from snapshot %d: %w", k, i, err)
					}
					got(k, res, nil)
				}
			}
			return nil
		}},
		// Every kind at once through the walk-once path, in 7-access
		// batches, so accountant state crosses many batch boundaries.
		conformanceRow{"all", func(in conformanceInput, got reportFunc) error {
			return eachStream(in, got, 7, 0)
		}},
		conformanceRow{"logged", perKind(func(k Kind, in conformanceInput) (Result, error) {
			res, log, err := RunLogged(ctx, k, in.cfg, in.opts, trace.FromSlice(in.accs), 0)
			if err == nil && len(log) != len(in.accs) {
				err = fmt.Errorf("logged %d port ops for %d accesses", len(log), len(in.accs))
			}
			return res, err
		})},
	)
	return append(rows,
		conformanceRow{"each-stream/shards0", func(in conformanceInput, got reportFunc) error {
			return eachStream(in, got, 0, 0)
		}},
		conformanceRow{"each-stream/shards4", shardedRow(4, true)},
	)
}

// referenceResult feeds accs to a fresh frozen reference controller one
// Access at a time — the definition every execution path is held to — and
// returns its Result and its flushed memory image.
func referenceResult(t *testing.T, k Kind, cfg cache.Config, opts Options, accs []trace.Access) (Result, *mem.Memory) {
	t.Helper()
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := newReference(k, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		ctrl.Access(a)
	}
	res := ctrl.Finalize()
	c.FlushAll()
	return res, c.Backing()
}

func TestConformance(t *testing.T) {
	rows := conformanceRows()
	for _, in := range conformanceCorpus() {
		want := map[Kind]Result{}
		wantImg := map[Kind]*mem.Memory{}
		for _, k := range in.kinds {
			want[k], wantImg[k] = referenceResult(t, k, in.cfg, in.opts, in.accs)
		}
		for _, row := range rows {
			t.Run(in.name+"/"+row.name, func(t *testing.T) {
				reported := map[Kind]int{}
				err := row.run(in, func(k Kind, res Result, img *mem.Memory) {
					reported[k]++
					requireResultsEqual(t, fmt.Sprintf("%v #%d", k, reported[k]), res, want[k])
					if img != nil && !img.Equal(wantImg[k]) {
						t.Errorf("%v #%d: flushed memory image differs from the reference's", k, reported[k])
					}
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
