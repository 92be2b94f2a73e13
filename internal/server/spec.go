package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/hier"
	"cache8t/internal/report"
	"cache8t/internal/workload"
)

// MaxCacheKB bounds the cache size a job may request. The paper's shapes top
// out at 128 KB; 64 MiB leaves three orders of magnitude of headroom for
// sensitivity studies while keeping one malicious spec from allocating a
// multi-gigabyte set array inside the daemon.
const MaxCacheKB = 64 * 1024

// JobSpec is the wire description of one simulation job: which controller to
// run, over which input (a bundled workload by name, or a trace uploaded
// alongside the spec), on what cache shape, with which execution knobs.
// Execution knobs (shards, batch) never change results — only the wall-clock
// — so they are excluded from the artifact's config hash.
type JobSpec struct {
	// Controller is the scheme to simulate (core.ParseKind names).
	Controller string `json:"controller"`
	// Workload names a bundled benchmark profile. Empty means the job replays
	// an uploaded trace instead; exactly one of the two sources must be set.
	Workload string `json:"workload,omitempty"`
	// N bounds the accesses simulated. Required (> 0) for workload jobs —
	// synthetic streams are unbounded — and optional for trace jobs, where 0
	// replays the whole trace.
	N int `json:"n,omitempty"`
	// Seed is the workload master seed.
	Seed uint64 `json:"seed,omitempty"`
	// Cache is the cache shape; zero fields take the paper's baseline.
	Cache CacheSpec `json:"cache"`
	// Options are the controller behaviour knobs.
	Options OptionsSpec `json:"options"`
	// Shards > 1 set-shards the run (any controller; the spec is rejected,
	// not silently degraded, when the cache cannot shard). Every shard
	// holds a whole cache, so Shards × Cache.SizeKB is bounded by
	// MaxCacheKB.
	Shards int `json:"shards,omitempty"`
	// Batch is the streaming batch length in accesses (0 = default).
	Batch int `json:"batch,omitempty"`
	// VDD and FreqMHz set the operating point for the energy metrics
	// (defaults 1.0 V / 2000 MHz).
	VDD     float64 `json:"vdd,omitempty"`
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	// Hierarchy turns the job into a two-level run (internal/hier): the
	// spec's Controller/Cache/Options describe the L1, and the L2 block the
	// second level driven by the L1's refill/write-back stream. Hierarchy
	// jobs run serially (Shards must be <= 1).
	Hierarchy bool `json:"hierarchy,omitempty"`
	// L2 configures the second level. Only valid — and only defaulted by
	// Normalize — when Hierarchy is set.
	L2 *L2Spec `json:"l2,omitempty"`
}

// L2Spec is the second-level portion of a hierarchy JobSpec.
type L2Spec struct {
	// Controller is the L2 scheme (core.ParseKind names; default rmw).
	Controller string `json:"controller,omitempty"`
	// Cache is the L2 shape; zero fields default to a 256 KB, 8-way cache
	// with the L1's block size.
	Cache CacheSpec `json:"cache"`
	// Options are the L2 controller knobs.
	Options OptionsSpec `json:"options"`
}

// CacheSpec is the cache geometry portion of a JobSpec.
type CacheSpec struct {
	SizeKB     int    `json:"size_kb,omitempty"`
	Ways       int    `json:"ways,omitempty"`
	BlockBytes int    `json:"block_bytes,omitempty"`
	Policy     string `json:"policy,omitempty"`
}

// OptionsSpec is the controller-option portion of a JobSpec.
type OptionsSpec struct {
	BufferDepth          int  `json:"buffer_depth,omitempty"`
	DisableSilentElision bool `json:"disable_silent_elision,omitempty"`
	CountFillTraffic     bool `json:"count_fill_traffic,omitempty"`
}

// FieldError locates one validation failure within a spec.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

// SpecError is the field-level validation failure of a JobSpec. The API
// renders Fields directly into the 400 response body.
type SpecError struct {
	Fields []FieldError
}

// Error implements error.
func (e *SpecError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Field + ": " + f.Msg
	}
	return "server: invalid spec: " + strings.Join(parts, "; ")
}

// DecodeSpec parses a JSON job spec strictly — unknown fields, trailing
// data, and type mismatches are errors, not silent drops — and fills the
// baseline defaults. The result still needs Validate before it can run.
func DecodeSpec(b []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, fmt.Errorf("server: spec: %w", err)
	}
	if dec.More() {
		return JobSpec{}, fmt.Errorf("server: spec: trailing data after JSON object")
	}
	s.Normalize()
	return s, nil
}

// Normalize fills zero fields with the paper's baseline defaults. It is
// idempotent, which is what makes accepted specs round-trip through
// Canonical byte-for-byte.
func (s *JobSpec) Normalize() {
	if s.Cache.SizeKB == 0 {
		s.Cache.SizeKB = 64
	}
	if s.Cache.Ways == 0 {
		s.Cache.Ways = 4
	}
	if s.Cache.BlockBytes == 0 {
		s.Cache.BlockBytes = 32
	}
	if s.Cache.Policy == "" {
		s.Cache.Policy = "lru"
	}
	if s.Options.BufferDepth == 0 {
		s.Options.BufferDepth = 1
	}
	if s.VDD == 0 {
		s.VDD = 1.0
	}
	if s.FreqMHz == 0 {
		s.FreqMHz = 2000
	}
	// The L2 block is defaulted only for hierarchy jobs: a bare `l2` on a
	// single-level spec stays as submitted so Validate can name the
	// inconsistency instead of papering over it.
	if s.Hierarchy {
		if s.L2 == nil {
			s.L2 = &L2Spec{}
		}
		if s.L2.Controller == "" {
			s.L2.Controller = "rmw"
		}
		if s.L2.Cache.SizeKB == 0 {
			s.L2.Cache.SizeKB = 256
		}
		if s.L2.Cache.Ways == 0 {
			s.L2.Cache.Ways = 8
		}
		if s.L2.Cache.BlockBytes == 0 {
			s.L2.Cache.BlockBytes = s.Cache.BlockBytes
		}
		if s.L2.Cache.Policy == "" {
			s.L2.Cache.Policy = "lru"
		}
		if s.L2.Options.BufferDepth == 0 {
			s.L2.Options.BufferDepth = 1
		}
	}
}

// Validate checks every field and returns a *SpecError naming each failure.
// hasTrace says whether the submission carried a trace upload, which decides
// the workload/n requirements.
func (s JobSpec) Validate(hasTrace bool) error {
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	_, kindErr := core.ParseKind(s.Controller)
	if s.Controller == "" {
		add("controller", "required (one of conventional|rmw|localrmw|word|coalesce|wg|wgrb|ts)")
	} else if kindErr != nil {
		add("controller", "%v", kindErr)
	}

	switch {
	case hasTrace && s.Workload != "":
		add("workload", "must be empty when a trace is uploaded (one source per job)")
	case !hasTrace && s.Workload == "":
		add("workload", "required when no trace is uploaded (see workload names via sramsim -list)")
	case !hasTrace:
		if _, err := workload.ProfileByName(s.Workload); err != nil {
			add("workload", "%v", err)
		}
	}

	switch {
	case s.N < 0:
		add("n", "must be >= 0")
	case !hasTrace && s.Workload != "" && s.N == 0:
		add("n", "must be > 0 for workload jobs (synthetic streams are unbounded)")
	}

	cfg, polErr := s.CacheConfig()
	if polErr != nil {
		add("cache.policy", "%v", polErr)
	}
	switch {
	case s.Cache.SizeKB < 0:
		add("cache.size_kb", "must be positive")
	case s.Cache.SizeKB > MaxCacheKB:
		add("cache.size_kb", "%d KB exceeds the service cap of %d KB", s.Cache.SizeKB, MaxCacheKB)
	default:
		if _, err := cache.NewGeometry(s.Cache.SizeKB*1024, s.Cache.Ways, s.Cache.BlockBytes); err != nil {
			add("cache", "%v", err)
		}
	}

	if s.Options.BufferDepth < 0 {
		add("options.buffer_depth", "must be >= 0")
	}

	switch {
	case s.Hierarchy:
		if s.L2 == nil {
			add("l2", "required when hierarchy is set (Normalize fills the defaults)")
			break
		}
		if s.L2.Controller == "" {
			add("l2.controller", "required (one of conventional|rmw|localrmw|word|coalesce|wg|wgrb|ts)")
		} else if _, err := core.ParseKind(s.L2.Controller); err != nil {
			add("l2.controller", "%v", err)
		}
		if _, err := cache.ParsePolicy(s.L2.Cache.Policy); err != nil {
			add("l2.cache.policy", "%v", err)
		}
		switch {
		case s.L2.Cache.SizeKB < 0:
			add("l2.cache.size_kb", "must be positive")
		case s.L2.Cache.SizeKB > MaxCacheKB:
			add("l2.cache.size_kb", "%d KB exceeds the service cap of %d KB", s.L2.Cache.SizeKB, MaxCacheKB)
		default:
			if _, err := cache.NewGeometry(s.L2.Cache.SizeKB*1024, s.L2.Cache.Ways, s.L2.Cache.BlockBytes); err != nil {
				add("l2.cache", "%v", err)
			}
		}
		if s.L2.Cache.BlockBytes != 0 && s.L2.Cache.BlockBytes < 8 {
			add("l2.cache.block_bytes", "must be at least 8 (the synthesized L2 stream uses 8-byte words)")
		}
		if s.L2.Options.BufferDepth < 0 {
			add("l2.options.buffer_depth", "must be >= 0")
		}
	case s.L2 != nil:
		add("l2", "only valid on hierarchy jobs; set hierarchy: true or drop the block")
	}

	switch {
	case s.Shards < 0:
		add("shards", "must be >= 0")
	case s.Shards > 1 && s.Hierarchy:
		add("shards", "hierarchy jobs are serial: the L1 listener drives the L2 on every fill and eviction, so there is no set partition to shard")
	case s.Shards > 1 && s.Cache.SizeKB > 0 && s.Shards > MaxCacheKB/s.Cache.SizeKB:
		// Every shard holds a cache of the full shape, so the shards'
		// caches together get the cap one cache has.
		add("shards", "%d shards of a %d KB cache exceed the service cap of %d KB: every shard holds a whole cache", s.Shards, s.Cache.SizeKB, MaxCacheKB)
	case s.Shards > 1 && kindErr == nil && polErr == nil:
		// core.PlanShards decides which runs shard; a request it would run
		// serially is refused with its reason.
		if err := core.PlanShards(cfg, s.Shards).Err(); err != nil {
			add("shards", "%v", err)
		}
	}
	if s.Batch < 0 {
		add("batch", "must be >= 0")
	}
	if s.VDD < 0 {
		add("vdd", "must be positive")
	}
	if s.FreqMHz < 0 {
		add("freq_mhz", "must be positive")
	}

	if len(fields) > 0 {
		return &SpecError{Fields: fields}
	}
	return nil
}

// Canonical renders the spec as canonical JSON (sorted keys, stable number
// literals). Decoding canonical bytes and re-encoding them reproduces the
// input exactly — the round-trip property FuzzJobSpec pins.
func (s JobSpec) Canonical() ([]byte, error) {
	return report.Canonical(s)
}

// CacheConfig translates the validated spec into the cache configuration.
func (s JobSpec) CacheConfig() (cache.Config, error) {
	pol, err := cache.ParsePolicy(s.Cache.Policy)
	if err != nil {
		return cache.Config{}, err
	}
	return cache.Config{
		SizeBytes:  s.Cache.SizeKB * 1024,
		Ways:       s.Cache.Ways,
		BlockBytes: s.Cache.BlockBytes,
		Policy:     pol,
		Seed:       s.Seed,
	}, nil
}

// CoreOptions translates the validated spec into controller options.
func (s JobSpec) CoreOptions() core.Options {
	return core.Options{
		BufferDepth:          s.Options.BufferDepth,
		DisableSilentElision: s.Options.DisableSilentElision,
		CountFillTraffic:     s.Options.CountFillTraffic,
	}
}

// HierConfig translates a validated hierarchy spec into the two-level run
// configuration.
func (s JobSpec) HierConfig() (hier.Config, error) {
	if !s.Hierarchy || s.L2 == nil {
		return hier.Config{}, fmt.Errorf("server: not a hierarchy spec")
	}
	l1Kind, err := core.ParseKind(s.Controller)
	if err != nil {
		return hier.Config{}, err
	}
	l1Cfg, err := s.CacheConfig()
	if err != nil {
		return hier.Config{}, err
	}
	l2Kind, err := core.ParseKind(s.L2.Controller)
	if err != nil {
		return hier.Config{}, err
	}
	l2Pol, err := cache.ParsePolicy(s.L2.Cache.Policy)
	if err != nil {
		return hier.Config{}, err
	}
	return hier.Config{
		L1Schemes: []core.Scheme{{Kind: l1Kind, Opts: s.CoreOptions()}},
		L1:        l1Cfg,
		L2Kind:    l2Kind,
		L2: cache.Config{
			SizeBytes:  s.L2.Cache.SizeKB * 1024,
			Ways:       s.L2.Cache.Ways,
			BlockBytes: s.L2.Cache.BlockBytes,
			Policy:     l2Pol,
			Seed:       s.Seed,
		},
		L2Opts: core.Options{
			BufferDepth:          s.L2.Options.BufferDepth,
			DisableSilentElision: s.L2.Options.DisableSilentElision,
			CountFillTraffic:     s.L2.Options.CountFillTraffic,
		},
	}, nil
}
