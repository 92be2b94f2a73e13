package workload

import (
	"fmt"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

// Generator produces an infinite, deterministic request stream for one
// benchmark profile. It implements trace.Stream and trace.BatchSource:
// ReadBatch is the one generation path, and Next and Take go through it.
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
//
// Region layout: every pattern family works in its own disjoint region
// (pattern.go), and only SeqWrite, the Copy destination, RMWSweep and Stack
// write. The SeqRead streams, the Copy source, and the PointerChase and
// StrideRead regions are never written, so a read there carries zero
// without a shadow lookup; a pattern that writes into one of those regions
// must read it through the shadow instead.
type Generator struct {
	prof   Profile
	r      *rng.Xoshiro256
	shadow *mem.Memory

	// memT, silentT and runT are the rng thresholds of MemFrac, SilentFrac
	// and 1/RunMean, computed once: every draw against them is the draw
	// Float64() < p would make.
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
	return uint32(g.r.Trials(g.memT) - 1)
}

// access completes an access of the current pattern with its gap. Callers
// pass the data already drawn, so every access makes its pattern's draws
// before its gap draw.
func (g *Generator) access(kind trace.Kind, addr, data uint64) trace.Access {
	return trace.Access{Addr: addr, Data: data, Gap: g.gap(), Size: elemSize, Kind: kind}
}

// store draws whether a write to addr is silent and returns the value it
// stores, updating the shadow image: a silent write stores what is there,
// any other a value guaranteed to differ from it.
func (g *Generator) store(addr uint64) uint64 {
	if g.r.Chance(g.silentT) {
		return g.shadow.ReadWord(addr, elemSize)
	}
	g.valCounter++
	return g.shadow.XorWord(addr, elemSize, g.valCounter<<1|1)
}

// ReadBatch fills dst with the stream's next len(dst) accesses, one pattern
// run at a time, and returns len(dst): the stream never ends. A run that
// ends exactly at the end of dst leaves the next run undrawn, so the RNG
// state after n accesses does not depend on how they were batched.
func (g *Generator) ReadBatch(dst []trace.Access) int {
	for i := 0; i < len(dst); {
		if g.remaining <= 0 {
			g.nextRun()
		}
		run := dst[i:min(len(dst), i+g.remaining)]
		g.fill(run)
		g.remaining -= len(run)
		i += len(run)
	}
	return len(dst)
}

// fill emits run from the current pattern, one loop per pattern.
func (g *Generator) fill(run []trace.Access) {
	switch g.pattern {
	case SeqRead:
		// A loop nest reading ReadStreams arrays in parallel (a[i]+b[i]...):
		// each access picks one stream, so consecutive reads stay in the
		// same block only 1/ReadStreams of the time.
		streams := g.prof.ReadStreams
		for i := range run {
			s := 0
			if streams > 1 {
				s = g.r.Intn(streams)
			}
			addr := uint64(seqReadBase+s*(seqRegionBytes+setSkew)) + g.seqReadCurs[s]%seqRegionBytes
			g.seqReadCurs[s] += elemSize
			run[i] = g.access(trace.Read, addr, 0)
		}
	case SeqWrite:
		for i := range run {
			addr := seqWriteBase + g.seqWriteCur%seqRegionBytes
			g.seqWriteCur += elemSize
			run[i] = g.access(trace.Write, addr, g.store(addr))
		}
	case Copy:
		for i := range run {
			if !g.copyPhase {
				run[i] = g.access(trace.Read, copySrcBase+g.copyCur%seqRegionBytes, 0)
			} else {
				addr := copyDstBase + setSkew + g.copyCur%seqRegionBytes
				g.copyCur += elemSize
				run[i] = g.access(trace.Write, addr, g.store(addr))
			}
			g.copyPhase = !g.copyPhase
		}
	case RMWSweep:
		for i := range run {
			addr := rmwBase + g.rmwCur%rmwRegionBytes
			if !g.rmwPhase {
				run[i] = g.access(trace.Read, addr, g.shadow.ReadWord(addr, elemSize))
			} else {
				g.rmwCur += elemSize
				run[i] = g.access(trace.Write, addr, g.store(addr))
			}
			g.rmwPhase = !g.rmwPhase
		}
	case PointerChase:
		for i := range run {
			slot := uint64(g.r.Intn(chaseRegionBytes/elemSize)) * elemSize
			run[i] = g.access(trace.Read, chaseBase+slot, 0)
		}
	case StrideRead:
		for i := range run {
			addr := strideBase + g.strideCur%strideRegionBytes
			g.strideCur += strideStep
			run[i] = g.access(trace.Read, addr, 0)
		}
	case Stack:
		// Random walk within the hot window; ~45% writes, like spill-heavy
		// integer code. Steps span up to two blocks so consecutive stack
		// accesses change set about half the time.
		for i := range run {
			step := uint64(g.r.Intn(9)) * elemSize
			if g.r.Chance(halfT) {
				g.stackCur += step
			} else {
				g.stackCur -= step
			}
			addr := stackBase + g.stackCur%stackRegionBytes
			if g.r.Chance(stackWriteT) {
				run[i] = g.access(trace.Write, addr, g.store(addr))
			} else {
				run[i] = g.access(trace.Read, addr, g.shadow.ReadWord(addr, elemSize))
			}
		}
	default:
		panic("workload: invalid pattern")
	}
}

// Next emits the next access, through ReadBatch. The stream is infinite;
// ok is always true.
func (g *Generator) Next() (trace.Access, bool) {
	var a [1]trace.Access
	g.ReadBatch(a[:])
	return a[0], true
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
	g.ReadBatch(out)
	return out, nil
}

// ensure interface compliance.
var (
	_ trace.Stream      = (*Generator)(nil)
	_ trace.BatchSource = (*Generator)(nil)
)

// String describes the generator.
func (g *Generator) String() string {
	return fmt.Sprintf("workload(%s)", g.prof.Name)
}
