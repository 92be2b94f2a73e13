package workload

import (
	"fmt"
	"testing"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

// The frozen reference: the generator as it stood when it emitted one
// access per Next call, before ReadBatch filled a pattern run at a time.
// It is kept only as the definition the batch path is held to
// (TestGeneratorMatchesReference, FuzzGeneratorBatch), so a draw the batch
// path adds, drops or reorders cannot hide behind the new code checking
// itself. Its body is the old Next's, with the edits a test file forces:
// the type is refGenerator, and its trials go through refTrials, Trials'
// loop as it stood. Every read still consults the shadow memory.

// refGenerator is the frozen per-access generator.
type refGenerator struct {
	prof   Profile
	r      *rng.Xoshiro256
	shadow *mem.Memory

	memT, silentT, runT uint64

	pattern   Pattern
	remaining int

	seqReadCurs [maxReadStreams]uint64
	seqWriteCur uint64
	copyCur     uint64
	copyPhase   bool
	rmwCur      uint64
	rmwPhase    bool
	strideCur   uint64
	stackCur    uint64

	valCounter uint64
}

func newRefGenerator(prof Profile, seed uint64) *refGenerator {
	g := &refGenerator{
		prof:    prof,
		r:       rng.New(seed ^ hashName(prof.Name)),
		shadow:  mem.New(),
		memT:    rng.Threshold(prof.MemFrac),
		silentT: rng.Threshold(prof.SilentFrac),
		runT:    rng.Threshold(1 / float64(prof.RunMean)),
	}
	g.nextRun()
	return g
}

// refTrials is rng's Trials as it stood: one Uint64 call per trial.
func refTrials(x *rng.Xoshiro256, t uint64) int {
	switch t {
	case 1 << 53:
		return 1
	case 0:
		return 1 << 20
	}
	n := 1
	for x.Uint64()>>11 >= t && n < 1<<20 {
		n++
	}
	return n
}

func (g *refGenerator) nextRun() {
	w := g.prof.Weights
	g.pattern = Pattern(g.r.Pick(w[:]))
	g.remaining = refTrials(g.r, g.runT)
}

func (g *refGenerator) gap() uint32 {
	n := refTrials(g.r, g.memT)
	return uint32(n - 1)
}

func (g *refGenerator) Next() (trace.Access, bool) {
	if g.remaining <= 0 {
		g.nextRun()
	}
	g.remaining--
	var a trace.Access
	switch g.pattern {
	case SeqRead:
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

func (g *refGenerator) read(addr uint64) trace.Access {
	return trace.Access{
		Kind: trace.Read,
		Addr: addr,
		Size: elemSize,
		Data: g.shadow.ReadWord(addr, elemSize),
	}
}

func (g *refGenerator) write(addr uint64) trace.Access {
	old := g.shadow.ReadWord(addr, elemSize)
	data := old
	if !g.r.Chance(g.silentT) {
		g.valCounter++
		data = old ^ (g.valCounter<<1 | 1)
		g.shadow.WriteWord(addr, elemSize, data)
	}
	return trace.Access{
		Kind: trace.Write,
		Addr: addr,
		Size: elemSize,
		Data: data,
	}
}

// requireSameAccesses fails at the first access where got and want differ.
func requireSameAccesses(t *testing.T, what string, got, want []trace.Access) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accesses, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d = %v gap %d, reference %v gap %d",
				what, i, got[i], got[i].Gap, want[i], want[i].Gap)
		}
	}
}

// TestGeneratorMatchesReference holds every generation path to the frozen
// reference, access for access, over all 25 profiles and three seeds:
// ReadBatch at batch lengths 1, 7 and 4096 (the RNG state must match too,
// so a batch end draws nothing early), Next, Take, and a two-profile Mix
// against the same interleave of reference generators.
func TestGeneratorMatchesReference(t *testing.T) {
	const n = 60000
	for _, p := range Profiles() {
		for _, seed := range []uint64{1, 2, 99} {
			ref := newRefGenerator(p, seed)
			want := make([]trace.Access, n)
			for i := range want {
				want[i], _ = ref.Next()
			}
			for _, size := range []int{1, 7, trace.DefaultBatchSize} {
				g, err := NewGenerator(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]trace.Access, n)
				for i := 0; i < n; i += size {
					batch := got[i:min(n, i+size)]
					if k := g.ReadBatch(batch); k != len(batch) {
						t.Fatalf("%s seed %d: ReadBatch(%d) = %d", p.Name, seed, len(batch), k)
					}
				}
				what := fmt.Sprintf("%s seed %d, batches of %d", p.Name, seed, size)
				requireSameAccesses(t, what, got, want)
				if g.r.State() != ref.r.State() {
					t.Fatalf("%s: RNG state differs from the reference's", what)
				}
			}
			g, err := NewGenerator(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]trace.Access, n)
			for i := range got {
				got[i], _ = g.Next()
			}
			requireSameAccesses(t, fmt.Sprintf("%s seed %d, Next", p.Name, seed), got, want)
			got, err = Take(p, seed, n)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAccesses(t, fmt.Sprintf("%s seed %d, Take", p.Name, seed), got, want)
		}
	}

	const quantum = 1000
	names := []string{"bwaves", "mcf"}
	for _, seed := range []uint64{1, 2, 99} {
		m, err := NewMixByNames(names, seed, quantum)
		if err != nil {
			t.Fatal(err)
		}
		var refs [2]*refGenerator
		for i, name := range names {
			p, _ := ProfileByName(name)
			refs[i] = newRefGenerator(p, seed)
		}
		got := make([]trace.Access, n)
		want := make([]trace.Access, n)
		for i := range want {
			want[i], _ = refs[i/quantum%2].Next()
		}
		if k := trace.FillBatch(m, got); k != n {
			t.Fatalf("mix filled %d of %d", k, n)
		}
		requireSameAccesses(t, fmt.Sprintf("mix seed %d", seed), got, want)
	}
}

// FuzzGeneratorBatch interleaves ReadBatch calls of arbitrary lengths (0
// included) with Next on one profile and seed, and holds every access and
// the final RNG state to the frozen reference. An odd op byte is a Next;
// an even one b is a ReadBatch of (b/2)²/4 accesses, 0 to 4032.
func FuzzGeneratorBatch(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{})
	f.Add(uint8(2), uint64(1), []byte{254, 1, 0, 4, 1, 1, 8, 254})
	f.Add(uint8(4), uint64(99), []byte{1, 1, 1, 1, 6, 0, 0, 10, 3, 200})
	f.Add(uint8(7), uint64(2), []byte{100, 101, 50, 51, 2, 2, 254, 254})
	f.Add(uint8(18), uint64(7), []byte{64, 7, 128, 9, 32, 11, 16, 13})
	profiles := Profiles()
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, ops []byte) {
		p := profiles[int(sel)%len(profiles)]
		g, err := NewGenerator(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefGenerator(p, seed)
		buf := make([]trace.Access, 4032)
		total := 0
		for op, b := range ops {
			if total > 1<<16 {
				break
			}
			batch := buf[:1]
			if b&1 == 1 {
				batch[0], _ = g.Next()
			} else {
				k := int(b >> 1)
				batch = buf[:k*k/4]
				if got := g.ReadBatch(batch); got != len(batch) {
					t.Fatalf("op %d: ReadBatch(%d) = %d", op, len(batch), got)
				}
			}
			for i, a := range batch {
				want, _ := ref.Next()
				if a != want {
					t.Fatalf("%s seed %d, op %d (byte %d), access %d of the op (%d overall) = %v gap %d, reference %v gap %d",
						p.Name, seed, op, b, i, total+i, a, a.Gap, want, want.Gap)
				}
			}
			total += len(batch)
		}
		if g.r.State() != ref.r.State() {
			t.Fatalf("%s seed %d: RNG state differs from the reference's after %d accesses", p.Name, seed, total)
		}
	})
}
