// Command tracegen writes and inspects binary request traces (the .c8tt
// format of internal/trace).
//
// Usage:
//
//	tracegen -workload lbm -n 500000 -o lbm.c8tt      generate from a profile
//	tracegen -workload lbm -o lbm.c8tt.gz             gzip framing by suffix
//	tracegen -kernel memset -o memset.c8tt            trace a pinlite kernel
//	tracegen -inspect lbm.c8tt                        print summary stats
//	                                                  (binary, gzip or text)
//	tracegen -inspect lbm.c8tt -dump 20               also dump first N records
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/pinlite"
	"cache8t/internal/report"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	var (
		workloadName = flag.String("workload", "", "bundled workload to generate from")
		kernelName   = flag.String("kernel", "", "pinlite kernel to trace: memset|memcpy|saxpy|reduce|matmul|chase|histogram|stencil|queue|fib")
		n            = flag.Int("n", 500_000, "accesses to generate (workloads) or instruction budget (kernels)")
		seed         = flag.Uint64("seed", 1, "workload seed")
		out          = flag.String("o", "", "output trace file")
		inspect      = flag.String("inspect", "", "trace file to summarize")
		dump         = flag.Int("dump", 0, "with -inspect, dump the first N records")
		reportPath   = flag.String("report", "", "write the generation artifact (canonical JSON) to this path")
	)
	showVersion := flag.Bool("version", false, "print version (git SHA + artifact schema) and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(report.Version("tracegen"))
		return
	}

	var count uint64
	var source string
	var err error
	switch {
	case *inspect != "":
		err = inspectTrace(*inspect, *dump)
	case *workloadName != "":
		source = "workload:" + *workloadName
		count, err = generateWorkload(*workloadName, *seed, *n, *out)
	case *kernelName != "":
		source = "kernel:" + *kernelName
		count, err = generateKernel(*kernelName, uint64(*n), *out)
	default:
		log.Fatal("need one of -workload, -kernel, or -inspect (see -h)")
	}
	if err != nil {
		log.Fatal(err)
	}
	if *reportPath != "" && source != "" {
		art := report.New("tracegen", *seed)
		art.SetConfig("source", source)
		art.SetConfig("n", *n)
		art.SetConfig("output", *out)
		art.SetMetric("accesses_written", float64(count))
		if err := report.WriteFile(*reportPath, art); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *reportPath)
	}
}

func openOut(path string) (*os.File, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -o output path")
	}
	return os.Create(path)
}

func generateWorkload(name string, seed uint64, n int, out string) (uint64, error) {
	gen, err := workload.Stream(name, seed)
	if err != nil {
		return 0, err
	}
	f, err := openOut(out)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if strings.HasSuffix(out, ".txt") {
		accs := trace.Collect(trace.NewLimit(gen, uint64(n)), 0)
		if err := trace.WriteText(f, accs); err != nil {
			return 0, err
		}
		fmt.Printf("wrote %d accesses from %s to %s (text)\n", len(accs), name, out)
		return uint64(len(accs)), f.Close()
	}
	count, err := trace.WriteAllAuto(f, gen, n, trace.IsGzipPath(out))
	if err != nil {
		return count, err
	}
	fmt.Printf("wrote %d accesses from %s to %s\n", count, name, out)
	return count, f.Close()
}

func findKernel(name string) (pinlite.Kernel, error) {
	for _, k := range pinlite.Kernels() {
		if k.Name == name {
			return k, nil
		}
	}
	names := make([]string, 0)
	for _, k := range pinlite.Kernels() {
		names = append(names, k.Name)
	}
	return pinlite.Kernel{}, fmt.Errorf("unknown kernel %q (have %v)", name, names)
}

func generateKernel(name string, budget uint64, out string) (uint64, error) {
	k, err := findKernel(name)
	if err != nil {
		return 0, err
	}
	accs, err := k.Run(budget)
	if err != nil {
		return 0, err
	}
	f, err := openOut(out)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	count, err := trace.WriteAllAuto(f, trace.FromSlice(accs), 0, trace.IsGzipPath(out))
	if err != nil {
		return count, err
	}
	fmt.Printf("wrote %d accesses from kernel %s (%s) to %s\n", count, k.Name, k.Description, out)
	return count, f.Close()
}

func inspectTrace(path string, dump int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	reader, err := trace.NewAnyReader(f)
	if err != nil {
		return err
	}
	g := cache.MustGeometry(64*1024, 4, 32)
	var first []trace.Access
	an := core.Analyze(trace.Func(func() (trace.Access, bool) {
		a, ok := reader.Next()
		if ok && len(first) < dump {
			first = append(first, a)
		}
		return a, ok
	}), g, 0)
	if err := reader.Err(); err != nil {
		return err
	}
	t := stats.NewTable("Trace summary: "+path, "metric", "value")
	t.AddRowf("accesses", an.Stats.Accesses())
	t.AddRowf("reads", an.Stats.Reads)
	t.AddRowf("writes", an.Stats.Writes)
	t.AddRowf("instructions", an.Stats.Instructions)
	t.AddRowf("reads/instr", stats.Pct(an.Stats.ReadFrac()))
	t.AddRowf("writes/instr", stats.Pct(an.Stats.WriteFrac()))
	t.AddRowf("same-set consecutive (64KB/4w/32B)", stats.Pct(an.SameSetFrac()))
	t.AddRowf("silent writes", stats.Pct(an.SilentFrac()))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for i, a := range first {
		fmt.Printf("%6d  %s\n", i, a)
	}
	return nil
}
