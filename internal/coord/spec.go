// Package coord is the distributed front half of simulation-as-a-service:
// a coordinator that accepts sweep (matrix) specs, decomposes them into
// single-point jobs, fans the points across a fleet of registered sramd
// workers over the existing HTTP job API, and merges the per-point
// artifacts into one canonical sweep ledger. Failures are recoverable
// events, not sweep killers: failed or timed-out dispatches retry with
// jittered exponential backoff, a per-worker circuit breaker keeps a dead
// worker from absorbing every retry, and a corrupt artifact (config-hash
// mismatch) is re-dispatched elsewhere and never merged. The coordinator's
// only state is its sweep table, journaled through the internal/server
// journal plus the result cache, so a killed coordinator recovers its
// sweeps mid-flight — already-finished points are found in the cache and
// never re-simulated. Workers stay stateless and unchanged on the wire.
//
// The determinism contract extends one level up: a coordinated sweep's
// merged ledger is byte-identical to ExecuteSerial's in-process serial run
// of the same spec, in any dispatch or completion order. DESIGN.md §13
// documents the state machine, the retry policy, and the merge argument.
package coord

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cache8t/internal/report"
	"cache8t/internal/server"
)

// MaxPoints bounds how many single-point jobs one sweep may decompose into.
// It keeps one spec from fanning a near-unbounded cross product over the
// fleet; larger studies submit several sweeps.
const MaxPoints = 4096

// SweepSpec is the wire description of one experiment matrix: the cross
// product of every axis below, each cell a single-point server.JobSpec.
// Scalar knobs (n, policy, options, operating point) apply to every cell.
type SweepSpec struct {
	// Controllers are the schemes to sweep (core.ParseKind names). Required.
	Controllers []string `json:"controllers"`
	// Workloads are the bundled benchmark profiles to sweep. Required —
	// sweeps are workload-driven; trace uploads stay single-job.
	Workloads []string `json:"workloads"`
	// Seeds are the workload master seeds (default [1]).
	Seeds []uint64 `json:"seeds,omitempty"`
	// N is the accesses simulated per point. Required (> 0).
	N int `json:"n"`
	// SizesKB, Ways, BlockBytes span the cache geometries (defaults
	// [64], [4], [32] — the paper's baseline shape).
	SizesKB    []int `json:"sizes_kb,omitempty"`
	Ways       []int `json:"ways,omitempty"`
	BlockBytes []int `json:"block_bytes,omitempty"`
	// BufferDepths spans the Set-Buffer depth axis (default [1]).
	BufferDepths []int `json:"buffer_depths,omitempty"`
	// Policy is the replacement policy for every cell (default "lru").
	Policy string `json:"policy,omitempty"`
	// Controller option toggles, applied to every cell.
	DisableSilentElision bool `json:"disable_silent_elision,omitempty"`
	CountFillTraffic     bool `json:"count_fill_traffic,omitempty"`
	// VDD and FreqMHz set the operating point (defaults 1.0 V / 2000 MHz).
	VDD     float64 `json:"vdd,omitempty"`
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	// Hierarchy makes every cell a two-level L1→L2 job; L2 (optional)
	// configures the second level for every cell, with zero fields taking
	// the single-job defaults. Scalar knobs, not axes — a sweep varies the
	// L1 while the L2 stays fixed.
	Hierarchy bool           `json:"hierarchy,omitempty"`
	L2        *server.L2Spec `json:"l2,omitempty"`
}

// Point is one decomposed cell of the matrix: its deterministic position in
// decomposition order, the fully normalized single-point spec, the resolved
// source, and the config hash its artifact must carry. The hash is what the
// dispatcher verifies on every fetched artifact and what keys the result
// cache, so a point finished in a previous coordinator life is never
// re-simulated.
type Point struct {
	Index      int
	Spec       server.JobSpec
	Source     string
	ConfigHash string
}

// DecodeSweepSpec parses a JSON sweep spec strictly — unknown fields,
// trailing data, and type mismatches are errors — and fills the defaults.
// The result still needs Validate before it can decompose.
func DecodeSweepSpec(b []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("coord: sweep spec: %w", err)
	}
	if dec.More() {
		return SweepSpec{}, fmt.Errorf("coord: sweep spec: trailing data after JSON object")
	}
	s.Normalize()
	return s, nil
}

// Normalize fills zero axes with the paper's baseline defaults. Idempotent,
// so accepted specs round-trip through Canonical byte-for-byte.
func (s *SweepSpec) Normalize() {
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	if len(s.SizesKB) == 0 {
		s.SizesKB = []int{64}
	}
	if len(s.Ways) == 0 {
		s.Ways = []int{4}
	}
	if len(s.BlockBytes) == 0 {
		s.BlockBytes = []int{32}
	}
	if len(s.BufferDepths) == 0 {
		s.BufferDepths = []int{1}
	}
	if s.Policy == "" {
		s.Policy = "lru"
	}
	if s.VDD == 0 {
		s.VDD = 1.0
	}
	if s.FreqMHz == 0 {
		s.FreqMHz = 2000
	}
}

// Points returns the matrix size (the product of every axis length), or -1
// when the product overflows past MaxPoints — callers only need "too big".
func (s SweepSpec) Points() int {
	n := 1
	for _, l := range []int{len(s.Controllers), len(s.Workloads), len(s.Seeds),
		len(s.SizesKB), len(s.Ways), len(s.BlockBytes), len(s.BufferDepths)} {
		n *= l
		if n > MaxPoints || n < 0 {
			return -1
		}
	}
	return n
}

// SweepError is the field-level validation failure of a SweepSpec; the API
// renders Fields into the 400 body exactly like server.SpecError.
type SweepError struct {
	Fields []server.FieldError
}

// Error implements error.
func (e *SweepError) Error() string {
	msg := "coord: invalid sweep spec:"
	for _, f := range e.Fields {
		msg += " " + f.Field + ": " + f.Msg + ";"
	}
	return msg[:len(msg)-1]
}

// Validate checks the sweep: every axis non-empty and duplicate-free (so
// the decomposition covers the matrix exactly once), the product within
// MaxPoints, and every decomposed cell a valid single-point job spec.
// Per-cell failures are reported with the cell's axis coordinates; after a
// few the rest are elided — a bad axis value usually fails every cell it
// touches.
func (s SweepSpec) Validate() error {
	var fields []server.FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, server.FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	if len(s.Controllers) == 0 {
		add("controllers", "required: at least one controller kind")
	}
	if len(s.Workloads) == 0 {
		add("workloads", "required: at least one bundled workload")
	}
	if s.N <= 0 {
		add("n", "must be > 0 (accesses per point)")
	}
	checkDup := func(field string, vals []string) {
		seen := map[string]bool{}
		for _, v := range vals {
			if seen[v] {
				add(field, "duplicate value %q (each cell must appear exactly once)", v)
			}
			seen[v] = true
		}
	}
	checkDup("controllers", s.Controllers)
	checkDup("workloads", s.Workloads)
	checkDupInts := func(field string, vals []int) {
		seen := map[int]bool{}
		for _, v := range vals {
			if seen[v] {
				add(field, "duplicate value %d (each cell must appear exactly once)", v)
			}
			seen[v] = true
		}
	}
	checkDupInts("sizes_kb", s.SizesKB)
	checkDupInts("ways", s.Ways)
	checkDupInts("block_bytes", s.BlockBytes)
	checkDupInts("buffer_depths", s.BufferDepths)
	seenSeeds := map[uint64]bool{}
	for _, v := range s.Seeds {
		if seenSeeds[v] {
			add("seeds", "duplicate value %d (each cell must appear exactly once)", v)
		}
		seenSeeds[v] = true
	}
	if s.L2 != nil && !s.Hierarchy {
		add("l2", "only valid with hierarchy: true")
	}
	if s.Points() < 0 {
		add("", "matrix exceeds the %d-point cap; split the study into several sweeps", MaxPoints)
	}
	if len(fields) > 0 {
		return &SweepError{Fields: fields}
	}

	// Every cell must be a job the workers will accept; validate through the
	// exact single-point path so coordinator and worker can never disagree.
	const maxCellErrors = 8
	s.forEachCell(func(idx int, js server.JobSpec) {
		if len(fields) >= maxCellErrors {
			return
		}
		if err := js.Validate(false); err != nil {
			add(fmt.Sprintf("cell[%d]", idx), "%s/%s seed=%d %dKB/%dw/%dB depth=%d: %v",
				js.Controller, js.Workload, js.Seed, js.Cache.SizeKB, js.Cache.Ways,
				js.Cache.BlockBytes, js.Options.BufferDepth, err)
		}
	})
	if len(fields) > 0 {
		return &SweepError{Fields: fields}
	}
	return nil
}

// forEachCell walks the matrix in the canonical decomposition order:
// controller (outermost) → workload → seed → size → ways → block → depth.
func (s SweepSpec) forEachCell(fn func(idx int, js server.JobSpec)) {
	idx := 0
	for _, ctrl := range s.Controllers {
		for _, wl := range s.Workloads {
			for _, seed := range s.Seeds {
				for _, size := range s.SizesKB {
					for _, ways := range s.Ways {
						for _, block := range s.BlockBytes {
							for _, depth := range s.BufferDepths {
								js := server.JobSpec{
									Controller: ctrl,
									Workload:   wl,
									N:          s.N,
									Seed:       seed,
									Cache: server.CacheSpec{
										SizeKB: size, Ways: ways, BlockBytes: block, Policy: s.Policy,
									},
									Options: server.OptionsSpec{
										BufferDepth:          depth,
										DisableSilentElision: s.DisableSilentElision,
										CountFillTraffic:     s.CountFillTraffic,
									},
									VDD:     s.VDD,
									FreqMHz: s.FreqMHz,
								}
								if s.Hierarchy {
									js.Hierarchy = true
									if s.L2 != nil {
										// Deep-copy per cell: Normalize fills the L2
										// block size from the cell's L1 block, so
										// cells must not share one L2Spec.
										l2 := *s.L2
										js.L2 = &l2
									}
								}
								js.Normalize()
								fn(idx, js)
								idx++
							}
						}
					}
				}
			}
		}
	}
}

// Decompose materializes the matrix into its single-point jobs, in the
// canonical order forEachCell defines, each stamped with the config hash
// its artifact must carry. The spec must have passed Validate.
func (s SweepSpec) Decompose() ([]Point, error) {
	n := s.Points()
	if n < 0 {
		return nil, fmt.Errorf("coord: matrix exceeds the %d-point cap", MaxPoints)
	}
	points := make([]Point, 0, n)
	var hashErr error
	s.forEachCell(func(idx int, js server.JobSpec) {
		hash, err := report.Hash(server.ConfigMap(js, js.Workload))
		if err != nil && hashErr == nil {
			hashErr = err
		}
		points = append(points, Point{Index: idx, Spec: js, Source: js.Workload, ConfigHash: hash})
	})
	if hashErr != nil {
		return nil, hashErr
	}
	return points, nil
}

// Canonical renders the sweep spec as canonical JSON; Hash is its content
// address — the sweep's identity in the journal and the result cache.
func (s SweepSpec) Canonical() ([]byte, error) {
	return report.Canonical(s)
}

// Hash returns the sweep's content address (sha256 of Canonical).
func (s SweepSpec) Hash() (string, error) {
	return report.Hash(s)
}
