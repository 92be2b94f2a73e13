// Package report is the run-artifact layer: every simulation command can
// emit a schema-versioned, canonically-encoded JSON description of what it
// ran (tool, git SHA, seed, hashed configuration) and what it measured
// (per-controller ledger counters, named scalar metrics, wall-clock).
// Artifacts are the currency of the regression harness: cmd/regress re-runs
// the paper's experiment matrix and diffs fresh artifacts against
// checked-in goldens with per-metric tolerance bands (see Compare), so
// "tests pass" also means "the paper's numbers still hold".
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"

	"cache8t/internal/core"
)

// SchemaVersion is the artifact schema this build reads and writes. Decode
// rejects any other version: goldens must be regenerated, not reinterpreted,
// when the schema moves.
const SchemaVersion = 1

// Artifact is one run's machine-readable record.
type Artifact struct {
	// Schema pins the encoding; see SchemaVersion.
	Schema int `json:"schema"`
	// Tool names the producing command ("sramsim", "regress", ...).
	Tool string `json:"tool"`
	// GitSHA is the vcs revision baked into the binary, "unknown" outside a
	// stamped build. Metadata only — never compared.
	GitSHA string `json:"git_sha"`
	// Seed is the master seed the run derived its randomness from.
	Seed uint64 `json:"seed"`
	// Config records the knobs that shaped the run (cache geometry, stream
	// lengths, controller options) as strings; ConfigHash is the sha256 of
	// Config's canonical encoding, stamped by Encode and verified by Decode.
	Config     map[string]string `json:"config"`
	ConfigHash string            `json:"config_hash"`
	// Controllers holds one flattened event ledger per simulated controller.
	Controllers []ControllerLedger `json:"controllers,omitempty"`
	// Metrics are the run's named scalar results — the values the regression
	// harness bands tolerances around.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// WallMS is the run's wall-clock in milliseconds. Metadata only.
	WallMS float64 `json:"wall_ms"`
}

// ControllerLedger is one controller's event counts, flattened to a sorted-
// key-friendly map so canonical encoding and exact diffing need no schema
// knowledge of individual counters.
type ControllerLedger struct {
	Controller string            `json:"controller"`
	Counters   map[string]uint64 `json:"counters"`
}

// New starts an artifact for a tool run: schema and git SHA stamped, maps
// ready to fill.
func New(tool string, seed uint64) *Artifact {
	return &Artifact{
		Schema:  SchemaVersion,
		Tool:    tool,
		GitSHA:  GitSHA(),
		Seed:    seed,
		Config:  map[string]string{},
		Metrics: map[string]float64{},
	}
}

// SetConfig records one configuration knob, formatting v with fmt.Sprint.
func (a *Artifact) SetConfig(key string, v any) {
	if a.Config == nil {
		a.Config = map[string]string{}
	}
	a.Config[key] = fmt.Sprint(v)
}

// SetMetric records one named scalar result.
func (a *Artifact) SetMetric(name string, v float64) {
	if a.Metrics == nil {
		a.Metrics = map[string]float64{}
	}
	a.Metrics[name] = v
}

// AddController appends res's full event ledger.
func (a *Artifact) AddController(res core.Result) {
	a.Controllers = append(a.Controllers, Ledger(res))
}

// Ledger flattens a controller run into its named counters: demand traffic,
// array traffic, Set-Buffer activity, group-size histogram, and functional
// cache events.
func Ledger(res core.Result) ControllerLedger {
	c := res.Counters
	counters := map[string]uint64{
		"array_reads":        res.ArrayReads,
		"array_writes":       res.ArrayWrites,
		"demand_reads":       c.DemandReads,
		"demand_writes":      c.DemandWrites,
		"instructions":       res.Requests.Instructions,
		"tag_probes":         c.TagProbes,
		"tag_hits":           c.TagHits,
		"grouped_writes":     c.GroupedWrites,
		"silent_writes":      c.SilentWrites,
		"silent_elided_wbs":  c.SilentElidedWBs,
		"premature_wbs":      c.PrematureWBs,
		"bypassed_reads":     c.BypassedReads,
		"buffer_fills":       c.BufferFills,
		"buffer_writebacks":  c.BufferWritebacks,
		"cache_read_hits":    res.Cache.ReadHits,
		"cache_read_misses":  res.Cache.ReadMisses,
		"cache_write_hits":   res.Cache.WriteHits,
		"cache_write_misses": res.Cache.WriteMisses,
		"cache_fills":        res.Cache.Fills,
		"cache_evictions":    res.Cache.Evictions,
		"cache_writebacks":   res.Cache.Writebacks,
	}
	for i, n := range c.GroupSizes {
		counters[fmt.Sprintf("group_size_bucket_%d", i)] = n
	}
	return ControllerLedger{Controller: res.Controller.String(), Counters: counters}
}

// Encode validates a, stamps its ConfigHash, and returns the canonical
// bytes.
func Encode(a *Artifact) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("report: nil artifact")
	}
	if a.Schema != SchemaVersion {
		return nil, fmt.Errorf("report: artifact schema %d, this build writes %d", a.Schema, SchemaVersion)
	}
	hash, err := Hash(a.Config)
	if err != nil {
		return nil, err
	}
	a.ConfigHash = hash
	return Canonical(a)
}

// Decode parses canonical artifact bytes, rejecting unsupported schema
// versions and artifacts whose config no longer matches its hash (a
// hand-edited or corrupted golden).
func Decode(b []byte) (*Artifact, error) {
	var probe struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	if probe.Schema != SchemaVersion {
		return nil, fmt.Errorf("report: artifact schema %d unsupported (this build reads %d); regenerate the artifact",
			probe.Schema, SchemaVersion)
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	hash, err := Hash(a.Config)
	if err != nil {
		return nil, err
	}
	if a.ConfigHash != hash {
		return nil, fmt.Errorf("report: decode: config hash %.12s does not match config (want %.12s); artifact edited or corrupted",
			a.ConfigHash, hash)
	}
	return &a, nil
}

// WriteFile encodes a canonically and writes it at path (parent directories
// created as needed).
func WriteFile(path string, a *Artifact) error {
	b, err := Encode(a)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// ReadFile loads and validates an artifact from path.
func ReadFile(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	a, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// GitSHA returns the revision of the working tree, with a "-dirty" suffix
// for modified trees. It asks git directly first — `go run` and `go test`
// binaries carry no stamped vcs build info, which used to leave every
// locally appended bench ledger entry attributed to "unknown" — and falls
// back to debug.ReadBuildInfo for stamped binaries running outside a
// checkout. "unknown" only when both fail. The lookup execs at most once
// per process.
func GitSHA() string {
	gitSHAOnce.Do(func() {
		if sha := gitRevParseSHA(); sha != "" {
			gitSHA = sha
		} else if sha := buildInfoSHA(); sha != "" {
			gitSHA = sha
		} else {
			gitSHA = "unknown"
		}
	})
	return gitSHA
}

var (
	gitSHAOnce sync.Once
	gitSHA     string
)

// gitRevParseSHA reads HEAD from the ambient git checkout ("" on any
// failure: no git binary, not a repository).
func gitRevParseSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if sha == "" {
		return ""
	}
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
		sha += "-dirty"
	}
	return sha
}

// buildInfoSHA reads the vcs revision stamped into the binary ("" when the
// build carries none — tests, go run from a non-vcs dir).
func buildInfoSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	sha, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if sha == "" {
		return ""
	}
	if dirty {
		return sha + "-dirty"
	}
	return sha
}
