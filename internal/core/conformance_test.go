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
// ablations, every kind under each ablation option set, scheme lists that
// mix options within one run, the metamorphic suite's mutated traces, and
// the stochastic-replacement and no-write-allocate shapes whose state is
// the hardest to checkpoint. A new execution path earns its place in the
// repository by passing every row here.

// conformanceInput is one corpus entry: the schemes to run and what to run
// them over.
type conformanceInput struct {
	name    string
	schemes []Scheme
	cfg     cache.Config
	accs    []trace.Access
}

// conformanceRow is one execution path. run executes in.accs for every
// scheme of in.schemes and reports each Result it produced under the index
// of the scheme it was meant to be for (a path may report several Results
// per scheme), with the run's flushed memory image where the path exposes
// one.
type conformanceRow struct {
	name string
	run  func(in conformanceInput, got reportFunc) error
}

// reportFunc takes one Result a row produced for scheme i, and the run's
// flushed memory image or nil.
type reportFunc func(i int, res Result, img *mem.Memory)

func conformanceCorpus() []conformanceInput {
	var in []conformanceInput
	for seed := uint64(1); seed <= 3; seed++ {
		accs := randomStream(seed, 4000, 1<<13)
		in = append(in, conformanceInput{fmt.Sprintf("oracle/seed%d", seed), Schemes(Options{}, Kinds()...), smallCfg(), accs})
		for _, oc := range oracleCases() {
			if oc.opts != (Options{}) {
				in = append(in, conformanceInput{fmt.Sprintf("oracle/%s/seed%d", oc.name, seed), []Scheme{{oc.kind, oc.opts}}, smallCfg(), accs})
			}
		}
		base := randomStream(seed, 3000, 1<<13)
		metamorphic := Schemes(Options{}, RMW, WG, WGRB, KindTS)
		in = append(in,
			conformanceInput{fmt.Sprintf("silent-dup/seed%d", seed), metamorphic, smallCfg(), withSilentDuplicates(base)},
			conformanceInput{fmt.Sprintf("read-dup/seed%d", seed), metamorphic, smallCfg(), withDuplicateReads(base)},
		)
	}
	// Every kind under each ablation option set, so the walk-once rows see
	// each one.
	for i, opts := range []Options{{BufferDepth: 2}, {BufferDepth: 4}, {DisableSilentElision: true}, {CountFillTraffic: true}} {
		in = append(in, conformanceInput{"options/" + optionsName(opts), Schemes(opts, Kinds()...), smallCfg(), randomStream(uint64(20+i), 4000, 1<<13)})
	}
	// Options mixed within one run: A1's three schemes, A2's depths, and the
	// paper's three schemes under both counting conventions.
	fills := Options{CountFillTraffic: true}
	depths := []Scheme{{Kind: RMW}}
	for _, d := range []int{1, 2, 4, 8} {
		depths = append(depths, Scheme{WGRB, Options{BufferDepth: d}})
	}
	in = append(in,
		conformanceInput{"mixed/silent", []Scheme{{Kind: RMW}, {Kind: WG}, {WG, Options{DisableSilentElision: true}}}, smallCfg(), randomStream(30, 4000, 1<<13)},
		conformanceInput{"mixed/depth", depths, smallCfg(), randomStream(31, 4000, 1<<13)},
		conformanceInput{"mixed/fills", append(Schemes(Options{}, RMW, WG, WGRB), Schemes(fills, RMW, WG, WGRB)...), smallCfg(), randomStream(32, 4000, 1<<13)},
	)
	random := smallCfg()
	random.Policy = cache.Random
	random.Seed = 42
	noalloc := smallCfg()
	noalloc.Policy = cache.TreePLRU
	noalloc.NoWriteAllocate = true
	accs := randomStream(11, 6000, 8192)
	return append(in,
		conformanceInput{"random-depth2", Schemes(Options{BufferDepth: 2}, Kinds()...), random, accs},
		conformanceInput{"plru-noalloc", Schemes(Options{DisableSilentElision: true, CountFillTraffic: true}, Kinds()...), noalloc, accs},
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

// perScheme lifts a single-scheme runner into a row body.
func perScheme(run func(sc Scheme, in conformanceInput) (Result, error)) func(conformanceInput, reportFunc) error {
	return func(in conformanceInput, got reportFunc) error {
		for i, sc := range in.schemes {
			res, err := run(sc, in)
			if err != nil {
				return fmt.Errorf("%v: %w", sc, err)
			}
			got(i, res, nil)
		}
		return nil
	}
}

// runSlice runs schemes over open through RunSchemes at batch and shards,
// and checks it returned one Result per scheme.
func runSlice(schemes []Scheme, cfg cache.Config, open func() (trace.Stream, error), batch, shards int) ([]Result, error) {
	res, err := RunSchemes(context.Background(), schemes, cfg, open, 0, batch, shards)
	if err == nil && len(res) != len(schemes) {
		err = fmt.Errorf("%d results for %d schemes", len(res), len(schemes))
	}
	return res, err
}

// eachStream runs every scheme of in through RunSchemes in one call.
func eachStream(in conformanceInput, got reportFunc, batch, shards int) error {
	res, err := runSlice(in.schemes, in.cfg, func() (trace.Stream, error) { return trace.FromSlice(in.accs), nil }, batch, shards)
	for i, r := range res {
		got(i, r, nil)
	}
	return err
}

// shardedRow runs in over shards walks: every scheme in one run (together),
// or one run per scheme. It asserts that the plan shards unless shards <= 1
// or the policy is Random, and reports each sharded run's memory image,
// combined from its walks.
func shardedRow(shards int, together bool) func(conformanceInput, reportFunc) error {
	return func(in conformanceInput, got reportFunc) error {
		want := shards
		if shards <= 1 || in.cfg.Policy == cache.Random {
			want = 1
		}
		if plan := PlanShards(in.cfg, shards); plan.Shards != want {
			return fmt.Errorf("plan %+v, want %d shards", plan, want)
		}
		// groups[g] lists the scheme indexes run g serves.
		var groups [][]int
		for i := range in.schemes {
			if together && i > 0 {
				groups[0] = append(groups[0], i)
			} else {
				groups = append(groups, []int{i})
			}
		}
		for _, idx := range groups {
			schemes := make([]Scheme, len(idx))
			for j, i := range idx {
				schemes[j] = in.schemes[i]
			}
			if want == 1 {
				res, err := runSlice(schemes, in.cfg, func() (trace.Stream, error) { return trace.FromSlice(in.accs), nil }, 0, shards)
				if err != nil {
					return err
				}
				for j, i := range idx {
					got(i, res[j], nil)
				}
				continue
			}
			r, err := newShardRun(in.cfg, want, schemes...)
			if err != nil {
				return err
			}
			res, err := r.run(context.Background(), trace.FromSlice(in.accs), 0, 0)
			if err != nil {
				return err
			}
			img := shardImage(r)
			for j, i := range idx {
				got(i, res[j], img)
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
		{"serial", perScheme(func(sc Scheme, in conformanceInput) (Result, error) {
			return runOne(sc.Kind, in.cfg, sc.Opts, trace.FromSlice(in.accs), 0)
		})},
	}
	for _, bs := range []int{1, 7, 512, 0} {
		rows = append(rows,
			conformanceRow{fmt.Sprintf("streamed/slice/batch%d", bs), perScheme(func(sc Scheme, in conformanceInput) (Result, error) {
				return runScheme(sc, in.cfg, trace.FromSlice(in.accs), 0, bs, 0)
			})},
			conformanceRow{fmt.Sprintf("streamed/reader/batch%d", bs), perScheme(func(sc Scheme, in conformanceInput) (Result, error) {
				return runScheme(sc, in.cfg, trace.NewReader(bytes.NewReader(encodeBinary(in.accs))), 0, bs, 0)
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
			for i, sc := range in.schemes {
				d, err := NewDriver(in.cfg, sc)
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
				got(i, straight[0], nil)
				for b, blob := range blobs {
					rd, err := ResumeDriver(blob, sc, in.cfg)
					if err != nil {
						return fmt.Errorf("%v snapshot %d: %w", sc, b, err)
					}
					res, err := rd.Drain(ctx, trace.FromSlice(in.accs), 0, 97)
					if err != nil {
						return fmt.Errorf("%v resume from snapshot %d: %w", sc, b, err)
					}
					got(i, res[0], nil)
				}
			}
			return nil
		}},
		// Every scheme at once through the walk-once path, in 7-access
		// batches, so accountant state crosses many batch boundaries.
		conformanceRow{"all", func(in conformanceInput, got reportFunc) error {
			return eachStream(in, got, 7, 0)
		}},
		conformanceRow{"logged", perScheme(func(sc Scheme, in conformanceInput) (Result, error) {
			res, log, err := RunLogged(ctx, sc.Kind, in.cfg, sc.Opts, trace.FromSlice(in.accs), 0)
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
		want := make([]Result, len(in.schemes))
		wantImg := make([]*mem.Memory, len(in.schemes))
		for i, sc := range in.schemes {
			want[i], wantImg[i] = referenceResult(t, sc.Kind, in.cfg, sc.Opts, in.accs)
		}
		for _, row := range rows {
			t.Run(in.name+"/"+row.name, func(t *testing.T) {
				reported := make([]int, len(in.schemes))
				err := row.run(in, func(i int, res Result, img *mem.Memory) {
					reported[i]++
					label := fmt.Sprintf("%d:%v%+v #%d", i, in.schemes[i].Kind, in.schemes[i].Opts, reported[i])
					requireResultsEqual(t, label, res, want[i])
					if img != nil && !img.Equal(wantImg[i]) {
						t.Errorf("%s: flushed memory image differs from the reference's", label)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, n := range reported {
					if n == 0 {
						t.Errorf("%d:%v: no result reported", i, in.schemes[i])
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
