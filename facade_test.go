package cache8t

import "testing"

func TestKernelsList(t *testing.T) {
	ks := Kernels()
	if len(ks) != 10 {
		t.Fatalf("got %d kernels: %v", len(ks), ks)
	}
}

func TestTraceKernelAndReplay(t *testing.T) {
	accs, err := TraceKernel("memset", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) == 0 {
		t.Fatal("empty kernel trace")
	}
	for _, a := range accs {
		if a.Kind != Write {
			t.Fatal("memset emitted a read")
		}
	}
	cfgWG := DefaultConfig()
	cfgWG.Controller = "wg"
	wg, err := Replay(cfgWG, accs)
	if err != nil {
		t.Fatal(err)
	}
	cfgRMW := DefaultConfig()
	cfgRMW.Controller = "rmw"
	rmw, err := Replay(cfgRMW, accs)
	if err != nil {
		t.Fatal(err)
	}
	// A pure sequential write burst: 4 words per 32 B block, so WG retires
	// each block with one fill + one write-back = 2 accesses per 4 writes,
	// against RMW's 8.
	if red := wg.ReductionVs(rmw); red < 0.70 || red > 0.80 {
		t.Errorf("memset WG reduction = %.3f, want ~0.75", red)
	}
	if _, err := TraceKernel("nope", 0); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestReplayRejectsBadAccess(t *testing.T) {
	if _, err := Replay(DefaultConfig(), []Access{{Kind: Read, Size: 5}}); err == nil {
		t.Fatal("bad size accepted")
	}
	bad := DefaultConfig()
	bad.Controller = "zzz"
	if _, err := Replay(bad, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestDVFSSweep(t *testing.T) {
	points, err := DVFSSweep(DefaultConfig(), "mcf", 1, 20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("got %d points", len(points))
	}
	sixReach, eightReach := 0, 0
	prevV := 2.0
	for _, p := range points {
		if p.VoltageV >= prevV {
			t.Errorf("voltages not descending: %.2f then %.2f", prevV, p.VoltageV)
		}
		prevV = p.VoltageV
		if p.SixTReachable {
			sixReach++
			if !p.EightTReachable {
				t.Error("point reachable by 6T but not 8T")
			}
		}
		if p.EightTReachable {
			eightReach++
			if p.EnergyPerAccessNJ <= 0 {
				t.Error("reachable point without energy")
			}
		}
	}
	if eightReach <= sixReach {
		t.Errorf("8T reaches %d levels, 6T %d — want strictly more", eightReach, sixReach)
	}
	// Energy per access must fall monotonically with voltage among
	// 8T-reachable points (leakage shrinks too in this model).
	prev := -1.0
	for _, p := range points {
		if !p.EightTReachable {
			continue
		}
		if prev > 0 && p.EnergyPerAccessNJ >= prev {
			t.Errorf("energy not falling with voltage: %.4f then %.4f", prev, p.EnergyPerAccessNJ)
		}
		prev = p.EnergyPerAccessNJ
	}
}

func TestDVFSSweepValidation(t *testing.T) {
	if _, err := DVFSSweep(DefaultConfig(), "mcf", 1, 100, 1); err == nil {
		t.Error("1 level accepted")
	}
	if _, err := DVFSSweep(DefaultConfig(), "nope", 1, 100, 4); err == nil {
		t.Error("unknown workload accepted")
	}
	bad := DefaultConfig()
	bad.Controller = "zzz"
	if _, err := DVFSSweep(bad, "mcf", 1, 100, 4); err == nil {
		t.Error("bad controller accepted")
	}
	bad = DefaultConfig()
	bad.Replacement = "mru"
	if _, err := DVFSSweep(bad, "mcf", 1, 100, 4); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestRunMix(t *testing.T) {
	cfg := DefaultConfig()
	res, err := RunMix(cfg, []string{"bwaves", "mcf"}, 1, 100, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads+res.Writes != 20000 {
		t.Fatalf("mix processed %d accesses", res.Reads+res.Writes)
	}
	if _, err := RunMix(cfg, []string{"nope"}, 1, 100, 10); err == nil {
		t.Fatal("unknown mix member accepted")
	}
	if _, err := RunMix(cfg, nil, 1, 100, 10); err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestNoWriteAllocateKnob(t *testing.T) {
	alloc := DefaultConfig()
	alloc.Controller = "rmw"
	around := alloc
	around.NoWriteAllocate = true
	a, err := RunWorkload(alloc, "mcf", 1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(around, "mcf", 1, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if b.ArrayWrites >= a.ArrayWrites {
		t.Errorf("write-around array writes %d not below allocate %d", b.ArrayWrites, a.ArrayWrites)
	}
}

// TestDVFSSweepHonorsWriteAllocate prices the same RMW run with and without
// write-allocate. Write-around changes the array traffic (RunWorkload), so
// the sweep must price the two configurations differently: it simulates
// the configuration it was given, every knob included.
func TestDVFSSweepHonorsWriteAllocate(t *testing.T) {
	const n = 20000
	alloc := DefaultConfig()
	alloc.Controller = "rmw"
	around := alloc
	around.NoWriteAllocate = true
	ra, err := RunWorkload(alloc, "bwaves", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunWorkload(around, "bwaves", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ArrayAccesses() == rb.ArrayAccesses() {
		t.Fatalf("write-around left the array traffic at %d", ra.ArrayAccesses())
	}
	pa, err := DVFSSweep(alloc, "bwaves", 1, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := DVFSSweep(around, "bwaves", 1, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pa[0].CPI == pb[0].CPI || pa[0].EnergyPerAccessNJ == pb[0].EnergyPerAccessNJ {
		t.Errorf("sweep ignores write-around: CPI %v vs %v, %v vs %v nJ/access",
			pa[0].CPI, pb[0].CPI, pa[0].EnergyPerAccessNJ, pb[0].EnergyPerAccessNJ)
	}
}
