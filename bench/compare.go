package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is the values of captured runs: workload → metric → one value per
// run. Traced runs are kept apart from untraced ones.
type runSet struct {
	untraced map[string]map[string][]float64
	traced   map[string]map[string][]float64
}

// readRuns collects the detail line of every run captured in path.
func readRuns(path string) (runSet, error) {
	set := runSet{untraced: map[string]map[string][]float64{}, traced: map[string]map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"bench":`) {
			continue
		}
		var d struct {
			Bench detail `json:"bench"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			return set, fmt.Errorf("%s: %w", path, err)
		}
		into := set.untraced
		if d.Bench.Traced {
			into = set.traced
		}
		if into[d.Bench.Workload] == nil {
			into[d.Bench.Workload] = map[string][]float64{}
		}
		for name, m := range d.Bench.Metrics {
			into[d.Bench.Workload][name] = append(into[d.Bench.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// verdict judges set b against set a for one metric: the median change
// against the bound, "unresolved" when either set's quartile spread is
// wider than the bound unless every run of b reads better than every run
// of a.
func verdict(a, b []float64, better string, bound float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / math.Abs(ma)
	worse := change
	if better == "higher" {
		worse = -change
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case math.Max(spread(a), spread(b)) > bound && !allBetter:
		return change, "unresolved"
	case worse > bound:
		return change, "worse"
	case worse < -bound:
		return change, "better"
	}
	return change, "same"
}

// compareRuns prints, per workload and end-to-end metric, both sets'
// medians and spreads and the verdict, plus the tracing overhead where the
// sets hold traced runs. It exits 1 when any metric is worse or unresolved.
func compareRuns(benchPath, pathA, pathB string, w io.Writer) (int, error) {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return 2, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return 2, fmt.Errorf("%s: %w", benchPath, err)
	}
	setA, err := readRuns(pathA)
	if err != nil {
		return 2, err
	}
	setB, err := readRuns(pathB)
	if err != nil {
		return 2, err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns a/b\tmedian a\tmedian b\tchange\tspread a\tspread b\tbound\tverdict")
	bad := 0
	for _, wl := range workloadNames() {
		ma, mb := setA.untraced[wl], setB.untraced[wl]
		if ma == nil || mb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			xa, xb := ma[m.Name], mb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t\t\t\t\t\t%.2f\tmissing\n", wl, m.Name, m.Unit, len(xa), len(xb), m.Bound)
				bad++
				continue
			}
			change, v := verdict(xa, xb, m.Better, m.Bound)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, len(xa), len(xb), median(xa), median(xb), 100*change,
				100*spread(xa), 100*spread(xb), 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 1, err
	}
	for _, wl := range workloadNames() {
		for _, set := range []struct {
			name string
			s    runSet
		}{{"a", setA}, {"b", setB}} {
			traced, plain := set.s.traced[wl]["bench.traced_op_p50_ms"], set.s.untraced[wl]["op_p50_ms"]
			if len(traced) > 0 && len(plain) > 0 {
				fmt.Fprintf(w, "tracing overhead %s %s: %+.1f%% (traced op p50 %.6g ms over %d runs, untraced %.6g ms over %d runs)\n",
					wl, set.name, 100*(median(traced)/median(plain)-1), median(traced), len(traced), median(plain), len(plain))
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d metric(s) worse, unresolved or missing\n", bad)
		return 1, nil
	}
	fmt.Fprintln(w, "no end-to-end metric is worse or unresolved")
	return 0, nil
}
