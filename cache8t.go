// Package cache8t is a trace-driven simulator of L1 data caches built from
// 8T SRAM cells, reproducing Farahani & Baniasadi, "Performance and Power
// Solutions for Caches Using 8T SRAM Cells" (MICRO 2012 workshops).
//
// Bit-interleaved 8T arrays cannot write part of a row without a
// Read-Modify-Write (RMW), which doubles array traffic for writes. The
// paper's fixes — Write Grouping (WG) and Write Grouping + Read Bypassing
// (WG+RB) — buffer the most recently written cache set in a Set-Buffer and
// retire grouped, non-silent writes with a single row operation.
//
// This package is the public facade: build a System from a Config, feed it
// Access values (by hand, from a workload generator, or from the pinlite
// instrumentation VM), and read back the array-traffic ledger. The paper's
// full evaluation lives in internal/experiments and is runnable via
// cmd/figures; the examples/ directory shows typical uses.
//
//	sys, err := cache8t.New(cache8t.DefaultConfig())
//	...
//	sys.Access(cache8t.Access{Kind: cache8t.Write, Addr: 0x1000, Size: 8, Data: 42})
//	res := sys.Finalize()
//	fmt.Println(res.ArrayAccesses())
package cache8t

import (
	"context"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// AccessKind distinguishes reads from writes.
type AccessKind uint8

const (
	// Read is a data-cache load.
	Read AccessKind = iota
	// Write is a data-cache store.
	Write
)

// Access is one L1-D request.
type Access struct {
	// Kind is Read or Write.
	Kind AccessKind
	// Addr is the byte address.
	Addr uint64
	// Size is the access width in bytes: 1, 2, 4, or 8.
	Size uint8
	// Data is the value stored (writes); silent-write detection compares
	// it against memory content.
	Data uint64
	// Gap is the number of non-memory instructions since the previous
	// access, used for per-instruction statistics. Zero is fine.
	Gap uint32
}

func (a Access) internal() trace.Access {
	return trace.Access{
		Kind: trace.Kind(a.Kind),
		Addr: a.Addr,
		Size: a.Size,
		Data: a.Data,
		Gap:  a.Gap,
	}
}

// Config selects the cache shape and write-path scheme.
type Config struct {
	// CacheSizeBytes, Ways, and BlockBytes shape the cache. The paper's
	// baseline is 64 KB, 4-way, 32 B.
	CacheSizeBytes int
	Ways           int
	BlockBytes     int
	// Replacement is "lru" (default), "fifo", "random", or "plru".
	Replacement string
	// Controller is the write-path scheme: "rmw" (8T baseline), "wg",
	// "wgrb" (the paper's techniques), "conventional" (6T reference),
	// "localrmw" (Park et al.), "word" (Chang et al.), or "coalesce"
	// (a block-granular coalescing write buffer).
	Controller string
	// BufferDepth is the number of Set-Buffer entries for wg/wgrb
	// (default 1, the paper's design).
	BufferDepth int
	// DisableSilentElision turns off the Dirty-bit silent-store
	// optimization (ablation).
	DisableSilentElision bool
	// NoWriteAllocate makes write misses bypass the cache (write-around)
	// instead of allocating a line; the paper's baseline allocates.
	NoWriteAllocate bool
	// Seed feeds the random replacement policy, if selected.
	Seed uint64
}

// DefaultConfig returns the paper's baseline: 64 KB / 4-way / 32 B LRU cache
// with the WG+RB controller.
func DefaultConfig() Config {
	return Config{
		CacheSizeBytes: 64 * 1024,
		Ways:           4,
		BlockBytes:     32,
		Replacement:    "lru",
		Controller:     "wgrb",
	}
}

// Result is the outcome of a simulation.
type Result struct {
	// Controller names the scheme that ran.
	Controller string

	// Reads and Writes count demand requests; Instructions counts the
	// instruction stream they were embedded in.
	Reads        uint64
	Writes       uint64
	Instructions uint64

	// ArrayReads and ArrayWrites are SRAM row operations — the paper's
	// "cache accesses".
	ArrayReads  uint64
	ArrayWrites uint64

	// Hits and Misses are functional cache events.
	Hits   uint64
	Misses uint64

	// Set-Buffer activity (wg/wgrb only).
	GroupedWrites    uint64
	SilentWrites     uint64
	BypassedReads    uint64
	BufferWritebacks uint64
}

// ArrayAccesses returns total SRAM row operations.
func (r Result) ArrayAccesses() uint64 { return r.ArrayReads + r.ArrayWrites }

// ReductionVs returns the fractional access reduction of r relative to a
// baseline result over the same request stream (1 - r/base).
func (r Result) ReductionVs(base Result) float64 {
	if base.ArrayAccesses() == 0 {
		return 0
	}
	return 1 - float64(r.ArrayAccesses())/float64(base.ArrayAccesses())
}

func resultFrom(res core.Result) Result {
	return Result{
		Controller:       res.Controller.String(),
		Reads:            res.Requests.Reads,
		Writes:           res.Requests.Writes,
		Instructions:     res.Requests.Instructions,
		ArrayReads:       res.ArrayReads,
		ArrayWrites:      res.ArrayWrites,
		Hits:             res.Cache.Hits(),
		Misses:           res.Cache.Misses(),
		GroupedWrites:    res.Counters.GroupedWrites,
		SilentWrites:     res.Counters.SilentWrites,
		BypassedReads:    res.Counters.BypassedReads,
		BufferWritebacks: res.Counters.BufferWritebacks,
	}
}

// System is a cache plus controller ready to consume accesses.
type System struct {
	ctrl core.Controller
	done bool
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	kind, cc, opts, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	c, err := cache.New(cc, mem.New())
	if err != nil {
		return nil, err
	}
	ctrl, err := core.New(kind, c, opts)
	if err != nil {
		return nil, err
	}
	return &System{ctrl: ctrl}, nil
}

// internal resolves cfg into the simulator's controller kind, cache shape,
// and controller options.
func (cfg Config) internal() (core.Kind, cache.Config, core.Options, error) {
	if cfg.Replacement == "" {
		cfg.Replacement = "lru"
	}
	policy, err := cache.ParsePolicy(cfg.Replacement)
	if err != nil {
		return 0, cache.Config{}, core.Options{}, err
	}
	kind, err := core.ParseKind(cfg.Controller)
	if err != nil {
		return 0, cache.Config{}, core.Options{}, err
	}
	cc := cache.Config{
		SizeBytes:       cfg.CacheSizeBytes,
		Ways:            cfg.Ways,
		BlockBytes:      cfg.BlockBytes,
		Policy:          policy,
		Seed:            cfg.Seed,
		NoWriteAllocate: cfg.NoWriteAllocate,
	}
	opts := core.Options{
		BufferDepth:          cfg.BufferDepth,
		DisableSilentElision: cfg.DisableSilentElision,
	}
	return kind, cc, opts, nil
}

// Access processes one request and returns the value read (reads) or now
// stored (writes).
func (s *System) Access(a Access) (uint64, error) {
	if s.done {
		return 0, fmt.Errorf("cache8t: system already finalized")
	}
	if a.Size != 1 && a.Size != 2 && a.Size != 4 && a.Size != 8 {
		return 0, fmt.Errorf("cache8t: access size %d not in {1,2,4,8}", a.Size)
	}
	return s.ctrl.Access(a.internal()), nil
}

// Finalize drains internal buffers and returns the result. The System must
// not be used afterwards.
func (s *System) Finalize() Result {
	if s.done {
		return Result{}
	}
	s.done = true
	return resultFrom(s.ctrl.Finalize())
}

// Workloads returns the names of the bundled SPEC CPU2006-like synthetic
// benchmarks.
func Workloads() []string { return workload.Names() }

// RunWorkload simulates n accesses of the named bundled workload under cfg
// and returns the result. Deterministic in (cfg, name, seed, n).
func RunWorkload(cfg Config, name string, seed uint64, n int) (Result, error) {
	gen, err := workload.Stream(name, seed)
	if err != nil {
		return Result{}, err
	}
	return run(cfg, gen, n)
}

// RunMix simulates n accesses of a multiprogrammed round-robin mix of the
// named workloads (quantum accesses per context switch) under cfg.
func RunMix(cfg Config, names []string, seed uint64, quantum, n int) (Result, error) {
	m, err := workload.NewMixByNames(names, seed, quantum)
	if err != nil {
		return Result{}, err
	}
	return run(cfg, m, n)
}

// run simulates the first n accesses of the endless stream s under cfg; a
// non-positive n simulates none.
func run(cfg Config, s trace.Stream, n int) (Result, error) {
	res, err := simulate(cfg, s, n)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(res[0]), nil
}

// simulate is run returning the simulator's own results, for callers that
// price them (DVFSSweep): cfg's controller first, then each of also under
// cfg's options, all over one walk of the cache.
func simulate(cfg Config, s trace.Stream, n int, also ...core.Kind) ([]core.Result, error) {
	kind, cc, opts, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		s = trace.FromSlice(nil)
	}
	schemes := core.Schemes(opts, append([]core.Kind{kind}, also...)...)
	return core.RunSchemes(context.Background(), schemes, cc, func() (trace.Stream, error) { return s, nil }, n, 0, 0)
}

// Compare runs the same workload under the configured controller and under
// the RMW baseline, over one walk of the cache, returning both results. The
// headline metric is technique.ReductionVs(baseline).
func Compare(cfg Config, name string, seed uint64, n int) (technique, baseline Result, err error) {
	gen, err := workload.Stream(name, seed)
	if err != nil {
		return Result{}, Result{}, err
	}
	res, err := simulate(cfg, gen, n, core.RMW)
	if err != nil {
		return Result{}, Result{}, err
	}
	return resultFrom(res[0]), resultFrom(res[1]), nil
}
