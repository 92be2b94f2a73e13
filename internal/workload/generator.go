package workload

import (
	"fmt"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

// Generator produces an infinite, deterministic request stream for one
// benchmark profile. It implements trace.Stream.
//
// Mechanics: the generator runs one pattern at a time for a geometrically
// distributed number of accesses (mean Profile.RunMean), then picks the next
// pattern by profile weight. Pattern cursors persist across runs, so an
// interrupted scan resumes where it left off — the way real loop nests
// interleave. Between memory accesses it inserts a geometric number of
// non-memory instructions so that accesses-per-instruction matches
// Profile.MemFrac. Writes consult a private shadow memory: with probability
// Profile.SilentFrac the write stores the value already present (a silent
// store); otherwise it stores a value guaranteed to differ.
type Generator struct {
	prof   Profile
	r      *rng.Xoshiro256
	shadow *mem.Memory

	// memT, silentT and runT are the rng thresholds of MemFrac, SilentFrac
	// and 1/RunMean, computed once: every draw against them is the draw
	// Bool and Geometric would make.
	memT, silentT, runT uint64

	pattern   Pattern
	remaining int

	seqReadCurs [maxReadStreams]uint64
	seqWriteCur uint64
	copyCur     uint64
	copyPhase   bool // false: read src next; true: write dst next
	rmwCur      uint64
	rmwPhase    bool // false: read next; true: write next
	strideCur   uint64
	stackCur    uint64

	valCounter uint64
}

// NewGenerator builds a generator for prof with the given seed. The same
// (profile, seed) pair always yields the same stream.
func NewGenerator(prof Profile, seed uint64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof:    prof,
		r:       rng.New(seed ^ hashName(prof.Name)),
		shadow:  mem.New(),
		memT:    rng.Threshold(prof.MemFrac),
		silentT: rng.Threshold(prof.SilentFrac),
		runT:    rng.Threshold(1 / float64(prof.RunMean)),
	}
	g.nextRun()
	return g, nil
}

// The Stack pattern's fixed probabilities, as rng thresholds: a step up
// the stack, and a write.
var (
	halfT       = rng.Threshold(0.5)
	stackWriteT = rng.Threshold(0.45)
)

// hashName folds the profile name into the seed so two profiles with the
// same numeric seed still produce unrelated streams (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// nextRun switches to a freshly drawn pattern run.
func (g *Generator) nextRun() {
	w := g.prof.Weights
	g.pattern = Pattern(g.r.Pick(w[:]))
	g.remaining = g.r.Trials(g.runT)
}

// gap draws the number of non-memory instructions preceding an access so
// the long-run accesses-per-instruction ratio equals MemFrac.
func (g *Generator) gap() uint32 {
	// Trials counts trials to the first success; with p = MemFrac the
	// mean is 1/MemFrac instructions per access, one of which is the
	// access itself.
	n := g.r.Trials(g.memT)
	return uint32(n - 1)
}

// Next emits the next access. The stream is infinite; ok is always true.
func (g *Generator) Next() (trace.Access, bool) {
	if g.remaining <= 0 {
		g.nextRun()
	}
	g.remaining--
	var a trace.Access
	switch g.pattern {
	case SeqRead:
		// A loop nest reading ReadStreams arrays in parallel (a[i]+b[i]...):
		// each access picks one stream, so consecutive reads stay in the
		// same block only 1/ReadStreams of the time.
		s := 0
		if g.prof.ReadStreams > 1 {
			s = g.r.Intn(g.prof.ReadStreams)
		}
		base := uint64(seqReadBase + s*(seqRegionBytes+setSkew))
		a = g.read(base + g.seqReadCurs[s]%seqRegionBytes)
		g.seqReadCurs[s] += elemSize
	case SeqWrite:
		a = g.write(seqWriteBase + g.seqWriteCur%seqRegionBytes)
		g.seqWriteCur += elemSize
	case Copy:
		if !g.copyPhase {
			a = g.read(copySrcBase + g.copyCur%seqRegionBytes)
		} else {
			a = g.write(copyDstBase + setSkew + g.copyCur%seqRegionBytes)
			g.copyCur += elemSize
		}
		g.copyPhase = !g.copyPhase
	case RMWSweep:
		addr := rmwBase + g.rmwCur%rmwRegionBytes
		if !g.rmwPhase {
			a = g.read(addr)
		} else {
			a = g.write(addr)
			g.rmwCur += elemSize
		}
		g.rmwPhase = !g.rmwPhase
	case PointerChase:
		slot := uint64(g.r.Intn(chaseRegionBytes/elemSize)) * elemSize
		a = g.read(chaseBase + slot)
	case StrideRead:
		a = g.read(strideBase + g.strideCur%strideRegionBytes)
		g.strideCur += strideStep
	case Stack:
		// Random walk within the hot window; ~45% writes, like spill-heavy
		// integer code. Steps span up to two blocks so consecutive stack
		// accesses change set about half the time.
		step := uint64(g.r.Intn(9)) * elemSize
		if g.r.Chance(halfT) {
			g.stackCur += step
		} else {
			g.stackCur -= step
		}
		addr := stackBase + g.stackCur%stackRegionBytes
		if g.r.Chance(stackWriteT) {
			a = g.write(addr)
		} else {
			a = g.read(addr)
		}
	default:
		panic("workload: invalid pattern")
	}
	a.Gap = g.gap()
	return a, true
}

// read builds a read access at addr carrying the current memory value.
func (g *Generator) read(addr uint64) trace.Access {
	return trace.Access{
		Kind: trace.Read,
		Addr: addr,
		Size: elemSize,
		Data: g.shadow.ReadWord(addr, elemSize),
	}
}

// write builds a write access at addr, silent with the profile probability,
// and updates the shadow image.
func (g *Generator) write(addr uint64) trace.Access {
	old := g.shadow.ReadWord(addr, elemSize)
	data := old
	if !g.r.Chance(g.silentT) {
		g.valCounter++
		data = old ^ (g.valCounter<<1 | 1) // guaranteed to differ from old
		g.shadow.WriteWord(addr, elemSize, data)
	}
	return trace.Access{
		Kind: trace.Write,
		Addr: addr,
		Size: elemSize,
		Data: data,
	}
}

// Stream returns a generator for the named benchmark, or an error for an
// unknown name. Convenience for CLIs.
func Stream(name string, seed uint64) (*Generator, error) {
	p, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return NewGenerator(p, seed)
}

// Take materializes the first n accesses of a fresh stream for prof. Requests
// beyond MaterializeCap fail fast instead of attempting the allocation.
func Take(prof Profile, seed uint64, n int) ([]trace.Access, error) {
	if err := CheckMaterializeCap(n); err != nil {
		return nil, fmt.Errorf("workload: materializing %q: %w", prof.Name, err)
	}
	g, err := NewGenerator(prof, seed)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Access, n)
	for i := range out {
		out[i], _ = g.Next()
	}
	return out, nil
}

// ensure interface compliance.
var _ trace.Stream = (*Generator)(nil)

// String describes the generator.
func (g *Generator) String() string {
	return fmt.Sprintf("workload(%s)", g.prof.Name)
}
