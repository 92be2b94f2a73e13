package workload

import "fmt"

// maxReadStreams bounds Profile.ReadStreams (parallel arrays a SeqRead loop
// walks).
const maxReadStreams = 4

// Profile describes one synthetic benchmark: the knobs that determine the
// four stream properties the paper's techniques are sensitive to. The table
// in Profiles covers the 25 SPEC CPU2006 benchmarks the paper simulates,
// each calibrated so the measured Figure 3/4/5 statistics land near the
// anchors the paper reports (see DESIGN.md §2 for the substitution argument
// and EXPERIMENTS.md for measured-vs-paper values).
type Profile struct {
	// Name is the SPEC benchmark this profile stands in for.
	Name string
	// MemFrac is memory accesses per executed instruction (reads+writes);
	// the paper's average is 0.40 (26% reads + 14% writes).
	MemFrac float64
	// SilentFrac is the probability a generated write stores the value
	// already in memory (Figure 5; paper average > 42%).
	SilentFrac float64
	// RunMean is the mean number of accesses a pattern run lasts before the
	// generator switches pattern; longer runs mean longer same-set bursts.
	RunMean int
	// ReadStreams is how many arrays a SeqRead run interleaves (1-4): more
	// streams dilute consecutive same-set read pairs.
	ReadStreams int
	// Weights mixes the patterns.
	Weights Weights
}

// Validate checks a profile for usability.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile with empty name")
	case !(p.MemFrac > 0 && p.MemFrac <= 1):
		return fmt.Errorf("workload %s: MemFrac %v out of (0,1]", p.Name, p.MemFrac)
	case !(p.SilentFrac >= 0 && p.SilentFrac <= 1):
		return fmt.Errorf("workload %s: SilentFrac %v out of [0,1]", p.Name, p.SilentFrac)
	case p.RunMean < 1:
		return fmt.Errorf("workload %s: RunMean %d < 1", p.Name, p.RunMean)
	case p.ReadStreams < 1 || p.ReadStreams > maxReadStreams:
		return fmt.Errorf("workload %s: ReadStreams %d out of [1,%d]", p.Name, p.ReadStreams, maxReadStreams)
	}
	total := 0.0
	for i, w := range p.Weights {
		if w < 0 {
			return fmt.Errorf("workload %s: negative weight for %v", p.Name, Pattern(i))
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workload %s: all pattern weights zero", p.Name)
	}
	return nil
}

// patternWriteShare is the long-run fraction of accesses each pattern emits
// as writes.
var patternWriteShare = [NumPatterns]float64{
	SeqRead:      0,
	SeqWrite:     1,
	Copy:         0.5,
	RMWSweep:     0.5,
	PointerChase: 0,
	StrideRead:   0,
	Stack:        0.45,
}

// ImpliedWriteShare returns the expected fraction of accesses that are
// writes, from the pattern mix.
func (p Profile) ImpliedWriteShare() float64 {
	var num, den float64
	for i, w := range p.Weights {
		num += w * patternWriteShare[i]
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// w builds a Weights value in pattern order: SeqRead, SeqWrite, Copy,
// RMWSweep, PointerChase, StrideRead, Stack.
func w(sr, sw, cp, rmw, pc, st, sk float64) Weights {
	return Weights{sr, sw, cp, rmw, pc, st, sk}
}

// profiles is the 25-benchmark table. The four benchmarks of SPEC CPU2006
// the paper omits (it runs "25 out of 29") are not identified in the text;
// we omit perlbench, dealII, tonto, and xalancbmk.
//
// Flavor notes: bwaves/wrf/lbm are the write-burst/silent-store extremes the
// paper calls out (§5.2); gamess and cactusADM carry the read-after-write
// set locality that makes WG+RB shine (§5.2); mcf/astar/omnetpp are pointer
// chasers; libquantum is a low-intensity streamer.
var profiles = []Profile{
	{Name: "bzip2", MemFrac: 0.36, SilentFrac: 0.35, RunMean: 16, ReadStreams: 2,
		Weights: w(0.30, 0.12, 0.22, 0.10, 0.08, 0.10, 0.08)},
	{Name: "gcc", MemFrac: 0.38, SilentFrac: 0.50, RunMean: 10, ReadStreams: 2,
		Weights: w(0.18, 0.15, 0.14, 0.12, 0.08, 0.05, 0.28)},
	{Name: "bwaves", MemFrac: 0.48, SilentFrac: 0.77, RunMean: 24, ReadStreams: 3,
		Weights: w(0.25, 0.30, 0.20, 0.15, 0.02, 0.05, 0.03)},
	{Name: "gamess", MemFrac: 0.39, SilentFrac: 0.45, RunMean: 12, ReadStreams: 1,
		Weights: w(0.35, 0.02, 0.04, 0.14, 0.09, 0.08, 0.28)},
	{Name: "mcf", MemFrac: 0.38, SilentFrac: 0.30, RunMean: 8, ReadStreams: 2,
		Weights: w(0.15, 0.06, 0.06, 0.14, 0.41, 0.08, 0.10)},
	{Name: "milc", MemFrac: 0.40, SilentFrac: 0.45, RunMean: 20, ReadStreams: 3,
		Weights: w(0.28, 0.14, 0.16, 0.10, 0.04, 0.22, 0.06)},
	{Name: "zeusmp", MemFrac: 0.34, SilentFrac: 0.50, RunMean: 18, ReadStreams: 3,
		Weights: w(0.24, 0.18, 0.16, 0.14, 0.04, 0.18, 0.06)},
	{Name: "gromacs", MemFrac: 0.36, SilentFrac: 0.40, RunMean: 14, ReadStreams: 2,
		Weights: w(0.30, 0.08, 0.12, 0.20, 0.06, 0.12, 0.12)},
	{Name: "cactusADM", MemFrac: 0.43, SilentFrac: 0.50, RunMean: 16, ReadStreams: 1,
		Weights: w(0.30, 0.04, 0.08, 0.22, 0.04, 0.06, 0.26)},
	{Name: "leslie3d", MemFrac: 0.40, SilentFrac: 0.45, RunMean: 18, ReadStreams: 3,
		Weights: w(0.28, 0.16, 0.16, 0.12, 0.04, 0.18, 0.06)},
	{Name: "namd", MemFrac: 0.30, SilentFrac: 0.35, RunMean: 14, ReadStreams: 2,
		Weights: w(0.34, 0.04, 0.08, 0.20, 0.06, 0.18, 0.10)},
	{Name: "gobmk", MemFrac: 0.38, SilentFrac: 0.50, RunMean: 8, ReadStreams: 2,
		Weights: w(0.20, 0.08, 0.10, 0.14, 0.12, 0.04, 0.32)},
	{Name: "soplex", MemFrac: 0.35, SilentFrac: 0.30, RunMean: 10, ReadStreams: 2,
		Weights: w(0.30, 0.06, 0.06, 0.12, 0.22, 0.12, 0.12)},
	{Name: "povray", MemFrac: 0.41, SilentFrac: 0.45, RunMean: 9, ReadStreams: 2,
		Weights: w(0.22, 0.06, 0.10, 0.12, 0.08, 0.06, 0.36)},
	{Name: "calculix", MemFrac: 0.34, SilentFrac: 0.40, RunMean: 14, ReadStreams: 2,
		Weights: w(0.32, 0.04, 0.08, 0.18, 0.06, 0.20, 0.12)},
	{Name: "hmmer", MemFrac: 0.44, SilentFrac: 0.35, RunMean: 16, ReadStreams: 2,
		Weights: w(0.24, 0.10, 0.12, 0.28, 0.04, 0.12, 0.10)},
	{Name: "sjeng", MemFrac: 0.35, SilentFrac: 0.50, RunMean: 8, ReadStreams: 2,
		Weights: w(0.20, 0.06, 0.08, 0.12, 0.14, 0.08, 0.32)},
	{Name: "GemsFDTD", MemFrac: 0.42, SilentFrac: 0.50, RunMean: 20, ReadStreams: 3,
		Weights: w(0.26, 0.18, 0.14, 0.12, 0.04, 0.20, 0.06)},
	{Name: "libquantum", MemFrac: 0.21, SilentFrac: 0.25, RunMean: 26, ReadStreams: 1,
		Weights: w(0.24, 0.16, 0.14, 0.14, 0.02, 0.26, 0.04)},
	{Name: "h264ref", MemFrac: 0.42, SilentFrac: 0.40, RunMean: 18, ReadStreams: 2,
		Weights: w(0.22, 0.10, 0.30, 0.10, 0.06, 0.14, 0.08)},
	{Name: "lbm", MemFrac: 0.30, SilentFrac: 0.60, RunMean: 28, ReadStreams: 2,
		Weights: w(0.16, 0.26, 0.24, 0.16, 0.02, 0.12, 0.04)},
	{Name: "omnetpp", MemFrac: 0.43, SilentFrac: 0.40, RunMean: 9, ReadStreams: 2,
		Weights: w(0.16, 0.16, 0.10, 0.12, 0.16, 0.04, 0.26)},
	{Name: "astar", MemFrac: 0.36, SilentFrac: 0.35, RunMean: 8, ReadStreams: 2,
		Weights: w(0.18, 0.08, 0.08, 0.16, 0.28, 0.06, 0.16)},
	{Name: "wrf", MemFrac: 0.44, SilentFrac: 0.60, RunMean: 22, ReadStreams: 3,
		Weights: w(0.24, 0.22, 0.16, 0.10, 0.04, 0.18, 0.06)},
	{Name: "sphinx3", MemFrac: 0.39, SilentFrac: 0.30, RunMean: 12, ReadStreams: 2,
		Weights: w(0.34, 0.06, 0.08, 0.16, 0.10, 0.20, 0.06)},
}

// Profiles returns the 25 benchmark profiles in table order. The slice is a
// copy; callers may mutate it freely.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// Names returns the benchmark names in table order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// ProfileByName returns the profile for a benchmark name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}

// Resolve turns a CLI -bench argument into a profile list: the full
// 25-benchmark suite for "", or the single named profile.
func Resolve(name string) ([]Profile, error) {
	if name == "" {
		return Profiles(), nil
	}
	p, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return []Profile{p}, nil
}
