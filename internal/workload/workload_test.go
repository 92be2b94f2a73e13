package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/rng"
	"cache8t/internal/trace"
)

const calibN = 200000

func baselineGeom() cache.Geometry {
	return cache.MustGeometry(64*1024, 4, 32)
}

func TestPatternNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Pattern(0); p < NumPatterns; p++ {
		name := p.String()
		if name == "" || strings.HasPrefix(name, "Pattern(") {
			t.Errorf("pattern %d unnamed", p)
		}
		if seen[name] {
			t.Errorf("duplicate pattern name %q", name)
		}
		seen[name] = true
	}
	if !strings.HasPrefix(Pattern(99).String(), "Pattern(") {
		t.Error("out-of-range pattern name")
	}
}

func TestProfilesTableValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 25 {
		t.Fatalf("profile table has %d entries, want 25 (paper §5.1)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestProfileValidateRejections(t *testing.T) {
	good, _ := ProfileByName("bwaves")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemFrac = 0 },
		func(p *Profile) { p.MemFrac = 1.5 },
		func(p *Profile) { p.SilentFrac = -0.1 },
		func(p *Profile) { p.SilentFrac = 1.1 },
		func(p *Profile) { p.MemFrac = math.NaN() },
		func(p *Profile) { p.SilentFrac = math.NaN() },
		func(p *Profile) { p.RunMean = 0 },
		func(p *Profile) { p.ReadStreams = 0 },
		func(p *Profile) { p.ReadStreams = 9 },
		func(p *Profile) { p.Weights = Weights{} },
		func(p *Profile) { p.Weights[0] = -1 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

// TestThresholdMatchesFloat pins the generator's integer draws to the float
// draws they replace: for every probability the generator uses, u>>11 <
// rng.Threshold(p) exactly when Float64() < p would hold for the same u,
// over 10^6 random draws and at the draws on either side of the threshold.
func TestThresholdMatchesFloat(t *testing.T) {
	ps := []float64{0x1p-53, 12345 * 0x1p-53, 0.5, 1 - 0x1p-53, 1 / 3.0}
	for _, p := range Profiles() {
		ps = append(ps, p.MemFrac, p.SilentFrac, 1/float64(p.RunMean))
	}
	ths := make([]uint64, len(ps))
	for i, p := range ps {
		ths[i] = rng.Threshold(p)
	}
	check := func(i int, k uint64) {
		if got, want := k < ths[i], float64(k)/(1<<53) < ps[i]; got != want {
			t.Fatalf("p=%v, u>>11=%d: threshold says %v, Float64 says %v", ps[i], k, got, want)
		}
	}
	r := rng.New(53)
	for n := 0; n < 1_000_000; n++ {
		k := r.Uint64() >> 11
		for i := range ps {
			check(i, k)
		}
	}
	for i, th := range ths {
		for k := th - min(th, 2); k <= min(th+2, 1<<53-1); k++ {
			check(i, k)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("lbm")
	if err != nil || p.Name != "lbm" {
		t.Fatalf("ProfileByName(lbm) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if len(Names()) != 25 {
		t.Fatal("Names length mismatch")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByName("gcc")
	a, _ := Take(p, 7, 5000)
	b, _ := Take(p, 7, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at access %d", i)
		}
	}
	c, _ := Take(p, 8, 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("different seeds produced %d/%d identical accesses", same, len(a))
	}
}

func TestGeneratorSeedsDifferAcrossProfiles(t *testing.T) {
	// Same numeric seed, different benchmarks: streams must differ.
	pa, _ := ProfileByName("bzip2")
	pb, _ := ProfileByName("gcc")
	a, _ := Take(pa, 1, 1000)
	b, _ := Take(pb, 1, 1000)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr && a[i].Kind == b[i].Kind {
			same++
		}
	}
	if same > 100 {
		t.Errorf("%d/1000 identical accesses across profiles", same)
	}
}

func TestGeneratorAccessWellFormed(t *testing.T) {
	for _, p := range Profiles() {
		accs, err := Take(p, 3, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range accs {
			if a.Size != elemSize {
				t.Fatalf("%s access %d size %d", p.Name, i, a.Size)
			}
			if a.Addr%elemSize != 0 {
				t.Fatalf("%s access %d unaligned addr %#x", p.Name, i, a.Addr)
			}
		}
	}
}

// TestZeroReadRegionsNeverWritten pins the region layout the generator's
// zero reads rely on: no region a pattern writes overlaps a region the
// generator reads without its shadow.
func TestZeroReadRegionsNeverWritten(t *testing.T) {
	type region struct {
		name   string
		lo, hi uint64
	}
	written := []region{
		{"seq-write", seqWriteBase, seqWriteBase + seqRegionBytes},
		{"copy destination", copyDstBase + setSkew, copyDstBase + setSkew + seqRegionBytes},
		{"rmw-sweep", rmwBase, rmwBase + rmwRegionBytes},
		{"stack", stackBase, stackBase + stackRegionBytes},
	}
	zero := []region{
		{"copy source", copySrcBase, copySrcBase + seqRegionBytes},
		{"pointer-chase", chaseBase, chaseBase + chaseRegionBytes},
		{"stride-read", strideBase, strideBase + strideRegionBytes},
	}
	for s := 0; s < maxReadStreams; s++ {
		lo := uint64(seqReadBase + s*(seqRegionBytes+setSkew))
		zero = append(zero, region{fmt.Sprintf("seq-read stream %d", s), lo, lo + seqRegionBytes})
	}
	for _, z := range zero {
		for _, w := range written {
			if z.lo < w.hi && w.lo < z.hi {
				t.Errorf("%s [%#x, %#x) overlaps written %s [%#x, %#x)", z.name, z.lo, z.hi, w.name, w.lo, w.hi)
			}
		}
	}
}

func TestGeneratorRejectsInvalidProfile(t *testing.T) {
	if _, err := NewGenerator(Profile{}, 1); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestStreamByName(t *testing.T) {
	g, err := Stream("mcf", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "mcf") {
		t.Errorf("String = %q", g.String())
	}
	if _, err := Stream("nope", 1); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// Calibration self-checks: the measured statistics must track the profile's
// declared knobs and the paper's anchors. These are the contract between the
// workload substitute and the experiments (DESIGN.md §2).

func measure(t *testing.T, p Profile) core.StreamAnalysis {
	t.Helper()
	g, err := NewGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return core.Analyze(g, baselineGeom(), calibN)
}

func TestSilentFractionTracksProfile(t *testing.T) {
	for _, name := range []string{"bwaves", "mcf", "lbm", "libquantum"} {
		p, _ := ProfileByName(name)
		an := measure(t, p)
		if got := an.SilentFrac(); math.Abs(got-p.SilentFrac) > 0.03 {
			t.Errorf("%s: measured silent %.3f, profile %.3f", name, got, p.SilentFrac)
		}
	}
}

func TestMemFracTracksProfile(t *testing.T) {
	for _, name := range []string{"bwaves", "gamess", "libquantum"} {
		p, _ := ProfileByName(name)
		an := measure(t, p)
		got := an.Stats.ReadFrac() + an.Stats.WriteFrac()
		if math.Abs(got-p.MemFrac) > 0.03 {
			t.Errorf("%s: measured mem/instr %.3f, profile %.3f", name, got, p.MemFrac)
		}
	}
}

func TestWriteShareTracksImplied(t *testing.T) {
	for _, name := range []string{"bwaves", "gamess", "hmmer"} {
		p, _ := ProfileByName(name)
		an := measure(t, p)
		got := float64(an.Stats.Writes) / float64(an.Stats.Accesses())
		if math.Abs(got-p.ImpliedWriteShare()) > 0.04 {
			t.Errorf("%s: measured write share %.3f, implied %.3f", name, got, p.ImpliedWriteShare())
		}
	}
}

func TestAggregateAnchorsMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	var readF, writeF, sameSet, silent []float64
	for _, p := range Profiles() {
		an := measure(t, p)
		readF = append(readF, an.Stats.ReadFrac())
		writeF = append(writeF, an.Stats.WriteFrac())
		sameSet = append(sameSet, an.SameSetFrac())
		silent = append(silent, an.SilentFrac())
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Paper anchors: 26% reads, 14% writes per instruction; ~27% same-set
	// consecutive accesses; >42% silent writes. Tolerances reflect that we
	// match shape, not decimals (DESIGN.md §6).
	if m := mean(readF); math.Abs(m-0.26) > 0.04 {
		t.Errorf("mean read/instr = %.3f, anchor 0.26", m)
	}
	if m := mean(writeF); math.Abs(m-0.14) > 0.04 {
		t.Errorf("mean write/instr = %.3f, anchor 0.14", m)
	}
	if m := mean(sameSet); m < 0.20 || m > 0.40 {
		t.Errorf("mean same-set = %.3f, anchor ~0.27", m)
	}
	if m := mean(silent); m < 0.38 || m > 0.50 {
		t.Errorf("mean silent = %.3f, anchor >0.42", m)
	}
}

func TestBwavesIsTheWriteExtreme(t *testing.T) {
	// Paper §3/§5.2: bwaves has >22% writes per instruction, the largest
	// WW share (~24%), and ~77% silent writes.
	var bw core.StreamAnalysis
	maxOtherWW := 0.0
	for _, p := range Profiles() {
		an := measure(t, p)
		if p.Name == "bwaves" {
			bw = an
			continue
		}
		if ww := an.WW(); ww > maxOtherWW {
			maxOtherWW = ww
		}
	}
	if got := bw.Stats.WriteFrac(); got < 0.22 {
		t.Errorf("bwaves writes/instr = %.3f, want > 0.22", got)
	}
	if got := bw.WW(); got <= maxOtherWW {
		t.Errorf("bwaves WW %.3f not the maximum (other max %.3f)", got, maxOtherWW)
	}
	if got := bw.SilentFrac(); math.Abs(got-0.77) > 0.03 {
		t.Errorf("bwaves silent = %.3f, want ~0.77", got)
	}
}

func TestRRAndWWDominatePairScenarios(t *testing.T) {
	// Paper Figure 4: "RR and WW account for the largest share of
	// consecutive accesses in almost all benchmarks." Check it holds on a
	// majority (interleaved RMW sweeps give a few benchmarks RW-heavy
	// mixes, as real codes do).
	dominant := 0
	for _, p := range Profiles() {
		an := measure(t, p)
		if an.RR() >= an.RW() && an.RR() >= an.WR() ||
			an.WW() >= an.RW() && an.WW() >= an.WR() {
			dominant++
		}
	}
	if dominant < 18 {
		t.Errorf("RR/WW dominant in only %d/25 benchmarks", dominant)
	}
}

func TestGapDistributionMatchesMemFrac(t *testing.T) {
	p, _ := ProfileByName("libquantum") // lowest MemFrac: strongest test
	accs, _ := Take(p, 2, calibN)
	var st trace.Stats
	for _, a := range accs {
		st.Observe(a)
	}
	got := float64(st.Accesses()) / float64(st.Instructions)
	if math.Abs(got-p.MemFrac) > 0.02 {
		t.Errorf("accesses/instruction = %.3f, want %.3f", got, p.MemFrac)
	}
}

func TestSilentWritesAreArchitecturallySilent(t *testing.T) {
	// Replaying the stream against a fresh shadow must find exactly the
	// writes the generator intended as silent — validates that generator
	// shadow state and architectural state agree.
	p, _ := ProfileByName("wrf")
	g, err := NewGenerator(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	an := core.Analyze(g, baselineGeom(), 50000)
	if an.SilentFrac() < p.SilentFrac-0.04 || an.SilentFrac() > p.SilentFrac+0.04 {
		t.Errorf("architectural silent frac %.3f vs profile %.3f", an.SilentFrac(), p.SilentFrac)
	}
}

func TestGeneratorQuickProperties(t *testing.T) {
	// For any profile and seed: accesses stay aligned, sized, and in the
	// designated regions; determinism holds for a prefix.
	ps := Profiles()
	f := func(seed uint64, profSel uint8) bool {
		p := ps[int(profSel)%len(ps)]
		a1, err := Take(p, seed, 300)
		if err != nil {
			return false
		}
		a2, err := Take(p, seed, 300)
		if err != nil {
			return false
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				return false
			}
			if a1[i].Size != elemSize || a1[i].Addr%elemSize != 0 {
				return false
			}
			if a1[i].Addr < seqReadBase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGenerator times generation alone, per access, through
// trace.FillBatch as the simulation pipeline pulls it: one op is one
// default-size batch.
func BenchmarkGenerator(b *testing.B) {
	for _, name := range []string{"bwaves", "mcf", "gcc", "bzip2"} {
		b.Run(name, func(b *testing.B) {
			g, err := Stream(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]trace.Access, trace.DefaultBatchSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trace.FillBatch(g, buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/access")
		})
	}
}
