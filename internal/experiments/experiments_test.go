package experiments

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"cache8t/internal/stats"
)

// testConfig keeps runtimes modest; statistics are stationary so shapes
// already hold at this budget.
func testConfig() Config {
	cfg := Default()
	cfg.AccessesPerBench = 60_000
	return cfg
}

// parsePct turns "27.3%" into 0.273.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parsePct(%q): %v", s, err)
	}
	return v / 100
}

// row finds the first row whose first cell equals name.
func row(t *testing.T, tab *stats.Table, name string) []string {
	t.Helper()
	for _, r := range tab.Rows {
		if r[0] == name {
			return r
		}
	}
	t.Fatalf("table %q has no row %q", tab.Title, name)
	return nil
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%q) failed: %v", e.ID, err)
		}
	}
	if len(seen) != 21 {
		t.Errorf("registry has %d experiments, want 21", len(seen))
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 25 benchmarks + measured mean + paper mean.
	if len(tab.Rows) != 27 {
		t.Fatalf("Fig3 has %d rows", len(tab.Rows))
	}
	mean := row(t, tab, "MEAN (measured)")
	reads := parsePct(t, mean[1])
	writes := parsePct(t, mean[2])
	if reads < 0.22 || reads > 0.30 {
		t.Errorf("mean reads %.3f outside anchor band around 0.26", reads)
	}
	if writes < 0.10 || writes > 0.18 {
		t.Errorf("mean writes %.3f outside anchor band around 0.14", writes)
	}
	bw := row(t, tab, "bwaves")
	if parsePct(t, bw[2]) < 0.22 {
		t.Errorf("bwaves writes %.3f, paper says > 22%%", parsePct(t, bw[2]))
	}
}

func TestFig4Shape(t *testing.T) {
	tab, err := Fig4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := row(t, tab, "MEAN (measured)")
	ss := parsePct(t, mean[5])
	if ss < 0.20 || ss > 0.40 {
		t.Errorf("mean same-set %.3f outside band around 0.27", ss)
	}
	// bwaves carries the largest WW share.
	bwWW := parsePct(t, row(t, tab, "bwaves")[4])
	for _, r := range tab.Rows[:25] {
		if r[0] == "bwaves" {
			continue
		}
		if ww := parsePct(t, r[4]); ww >= bwWW {
			t.Errorf("%s WW %.3f >= bwaves %.3f", r[0], ww, bwWW)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tab, err := Fig5(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := parsePct(t, row(t, tab, "MEAN (measured)")[1])
	if mean < 0.38 || mean > 0.50 {
		t.Errorf("mean silent %.3f outside band around 0.44", mean)
	}
	bw := parsePct(t, row(t, tab, "bwaves")[1])
	if bw < 0.72 || bw > 0.82 {
		t.Errorf("bwaves silent %.3f, paper ~0.77", bw)
	}
}

func TestRMWInflationShape(t *testing.T) {
	tab, err := RMWInflation(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := parsePct(t, row(t, tab, "MEAN (measured)")[3])
	max := parsePct(t, row(t, tab, "MAX (measured)")[3])
	if mean < 0.25 || mean > 0.40 {
		t.Errorf("mean inflation %.3f outside band around 0.32", mean)
	}
	if max < mean {
		t.Errorf("max %.3f below mean %.3f", max, mean)
	}
	if max < 0.40 || max > 0.55 {
		t.Errorf("max inflation %.3f, paper 0.47", max)
	}
}

func TestFig8Totals(t *testing.T) {
	tab, err := Fig8(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Conventional": "9",
		"RMW":          "13",
		"WG":           "9",
		"WG+RB":        "5",
	}
	for scheme, total := range want {
		if got := row(t, tab, scheme)[3]; got != total {
			t.Errorf("%s total = %s, want %s", scheme, got, total)
		}
	}
}

func meanReductions(t *testing.T, tab *stats.Table, wgCol, rbCol int) (wg, rb float64) {
	t.Helper()
	mean := row(t, tab, "MEAN (measured)")
	return parsePct(t, mean[wgCol]), parsePct(t, mean[rbCol])
}

func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wg, rb := meanReductions(t, tab, 1, 2)
	if wg < 0.22 || wg > 0.36 {
		t.Errorf("mean WG reduction %.3f outside band around paper 0.27", wg)
	}
	if rb < 0.28 || rb > 0.43 {
		t.Errorf("mean WG+RB reduction %.3f outside band around paper 0.33", rb)
	}
	if rb <= wg {
		t.Errorf("WG+RB %.3f not above WG %.3f", rb, wg)
	}
	// WG+RB beats WG on every benchmark (paper: "WG+RB outperforms WG in
	// all benchmarks"), and bwaves is the WG extreme (~47%).
	bwWG := parsePct(t, row(t, tab, "bwaves")[1])
	for _, r := range tab.Rows[:25] {
		rwg, rrb := parsePct(t, r[1]), parsePct(t, r[2])
		if rrb < rwg {
			t.Errorf("%s: WG+RB %.3f below WG %.3f", r[0], rrb, rwg)
		}
		if r[0] != "bwaves" && rwg >= bwWG {
			t.Errorf("%s WG %.3f >= bwaves %.3f", r[0], rwg, bwWG)
		}
	}
	if bwWG < 0.42 || bwWG > 0.56 {
		t.Errorf("bwaves WG reduction %.3f, paper 0.47", bwWG)
	}
}

func TestFig10BlockSizeHelps(t *testing.T) {
	cfg := testConfig()
	t9, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t10, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wg9, rb9 := meanReductions(t, t9, 1, 2)
	wg10, rb10 := meanReductions(t, t10, 1, 2)
	if wg10 <= wg9 {
		t.Errorf("64B blocks: WG %.3f not above 32B %.3f (paper: 29%% > 27%%)", wg10, wg9)
	}
	if rb10 <= rb9 {
		t.Errorf("64B blocks: WG+RB %.3f not above 32B %.3f (paper: 37%% > 33%%)", rb10, rb9)
	}
}

func TestFig11CacheSizeInsensitive(t *testing.T) {
	tab, err := Fig11(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := row(t, tab, "MEAN (measured)")
	wg32, rb32 := parsePct(t, mean[1]), parsePct(t, mean[2])
	wg128, rb128 := parsePct(t, mean[3]), parsePct(t, mean[4])
	if d := wg32 - wg128; d < -0.02 || d > 0.02 {
		t.Errorf("WG cache-size delta %.4f, paper shows ~0.3 points", d)
	}
	if d := rb32 - rb128; d < -0.02 || d > 0.02 {
		t.Errorf("WG+RB cache-size delta %.4f, paper shows ~0.5 points", d)
	}
}

func TestAreaTable(t *testing.T) {
	tab, err := Area(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := row(t, tab, "Set-Buffer size")[1]; got != "128 B" {
		t.Errorf("Set-Buffer size = %s, want 128 B", got)
	}
	// The exact ratio is 1024/524288 = 0.195%, which renders as "0.2%".
	if got := parsePct(t, row(t, tab, "Set-Buffer / cache storage")[1]); got > 0.002 {
		t.Errorf("storage ratio %.4f, paper < 0.2%%", got)
	}
	bits := row(t, tab, "Tag-Buffer size")[1]
	if !strings.HasSuffix(bits, " bits") {
		t.Fatalf("Tag-Buffer row = %q", bits)
	}
	n, err := strconv.Atoi(strings.TrimSuffix(bits, " bits"))
	if err != nil || n >= 150 || n < 100 {
		t.Errorf("Tag-Buffer bits = %q, paper < 150", bits)
	}
}

func TestPerfPowerOrdering(t *testing.T) {
	tab, err := PerfPower(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cpi := func(name string) float64 {
		v, err := strconv.ParseFloat(row(t, tab, name)[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	nj := func(name string) float64 {
		v, err := strconv.ParseFloat(row(t, tab, name)[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !(cpi("WG+RB") < cpi("WG") && cpi("WG") < cpi("RMW")) {
		t.Errorf("CPI ordering violated: RMW %.4f WG %.4f WG+RB %.4f",
			cpi("RMW"), cpi("WG"), cpi("WG+RB"))
	}
	if !(nj("WG+RB") < nj("WG") && nj("WG") < nj("RMW")) {
		t.Errorf("energy ordering violated: RMW %.4f WG %.4f WG+RB %.4f",
			nj("RMW"), nj("WG"), nj("WG+RB"))
	}
}

func TestAblationSilentContribution(t *testing.T) {
	tab, err := AblationSilent(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := row(t, tab, "MEAN")
	on, off := parsePct(t, mean[1]), parsePct(t, mean[2])
	if on <= off {
		t.Errorf("silent elision contributes nothing: on %.3f, off %.3f", on, off)
	}
}

func TestAblationDepthMonotone(t *testing.T) {
	tab, err := AblationDepth(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := row(t, tab, "MEAN")
	prev := -1.0
	for i := 1; i < len(mean); i++ {
		v := parsePct(t, mean[i])
		if v < prev-0.005 { // allow sub-half-point noise
			t.Errorf("depth sweep not monotone at column %d: %.3f after %.3f", i, v, prev)
		}
		prev = v
	}
}

func TestAblationRelatedRuns(t *testing.T) {
	tab, err := AblationRelated(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("related-work table has %d rows", len(tab.Rows))
	}
	acc := func(name string) float64 {
		v, err := strconv.ParseFloat(row(t, tab, name)[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Traffic: WordGranularity pays exactly 1 access per request (no RMW);
	// WG+RB drops below that because bypassed reads and grouped writes cost
	// zero array accesses; LocalRMW matches RMW on traffic.
	if !(acc("WG+RB") < acc("WordGranularity") && acc("WordGranularity") < acc("RMW")) {
		t.Errorf("traffic ordering violated: wgrb %.3f, word %.3f, rmw %.3f",
			acc("WG+RB"), acc("WordGranularity"), acc("RMW"))
	}
	if acc("LocalRMW") != acc("RMW") {
		t.Errorf("LocalRMW traffic %.3f != RMW %.3f", acc("LocalRMW"), acc("RMW"))
	}
	// A4: set-granular grouping beats the block-granular write buffer.
	if acc("WG") >= acc("Coalesce") {
		t.Errorf("WG traffic %.3f not below Coalesce %.3f", acc("WG"), acc("Coalesce"))
	}
}

// tableSHA256 pins every experiment's rendered table at 20k accesses per
// benchmark, seed 1, on the baseline cache: the sha256 of tab.String(). A
// change to how an experiment runs its schemes (how many walks, which
// options ride on one walk, how rows are gathered) must leave these bytes
// alone; only a deliberate change to the reproduced numbers may move one,
// and then with the goldens.
var tableSHA256 = map[string]string{
	"fig3":             "ccb5ad7eb7079c4981f5a6a072ddd1e4f0dbfa3acc0884ea701e41871e1a5f90",
	"fig4":             "d03a5dfe0045d68fca59e247d13596a561ef481023cfe211a818f105e159d775",
	"fig5":             "317e2a23bce3dcc561508002e9185a41cdbf6b818a5dc505b1de5cbd4a4e5f04",
	"rmw":              "8f30850fd94343467667f8248833f97ec88bc568e728ba84369a10fc845aac97",
	"fig8":             "3a218d7f777f3c9a9ba91f9808c83b92b5d9292b39dd553075a0ccf077580adb",
	"fig9":             "5f0f440366591af6164831dffab65b952f24c480c06f78e2f17475973721d239",
	"fig10":            "47b5cfe1110b128d892a2750232c10175c27d2dcc13f024920c17b593d74f9c8",
	"fig11":            "76953dc979316897f24197b6c9fc27b9094132761bed84798cb5f8ac527dbfc4",
	"area":             "d5dc281abfabab3d94c9f3c4d5300057e0f9193537c1423677ce1fcf1485299a",
	"perf":             "ec50a7816157a73e638970341c021995071a365b0e31b106f838b01d88ccc692",
	"ports":            "3a9aa948807098d09b50193c65437274e446bfad8c5b6fdfaf1ea32af996b352",
	"groups":           "0a9920d6e61e58c16571dabc57033797e71bf5ed8068a831b0f0b43d824d939b",
	"ecc":              "f9dbb99d2ad6e6c8ba47b2f29eeaea5aea273e9f376af174b80bca6b31e3f8c4",
	"mix":              "2853d7d0c251caa377abc68f04e340e787abe889858c8d2bfe073bb79b8ed568",
	"dvfs":             "931398f1ae64d5a3b20698a4a5aeede288294c6f323747d82f9a494450429642",
	"alloc":            "a639004b42b82d407feb1a83ede4ced7cb614662a44a3258dd855f58af70b010",
	"fills":            "78ddb9473ad47804e24bf4eece9c5c39fe7d17f0d4fa98d2f6ae25f7e2f44159",
	"hier":             "0aa3943750c6aa23a8e0ba85c40702719b68992dace497cafcd063b29f597227",
	"ablation-silent":  "63d93680f68d70142c4aa8aa1232a99a1d9f919e59fa664b452776c76c5c71f9",
	"ablation-depth":   "790ab084d3d9dbcf95156aad4d9ab60116b3696618e0218f6199b38417aef56c",
	"ablation-related": "5647fb23273d1413789e80eb53283c80de20813bf87439e8f02a4d1cacd372a9",
}

func TestAllExperimentsRenderAndCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	cfg := testConfig()
	cfg.AccessesPerBench = 20_000
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out := tab.String()
			if len(out) == 0 || !strings.Contains(out, tab.Columns[0]) {
				t.Error("empty render")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tableSHA256[e.ID] {
				t.Errorf("table bytes moved: sha256 %s, pinned %s\n%s", got, tableSHA256[e.ID], out)
			}
			var b strings.Builder
			if err := tab.CSV(&b); err != nil {
				t.Fatal(err)
			}
		})
	}
}
