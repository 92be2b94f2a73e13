package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is a reading of the process's CPU time and the Go runtime's
// allocation and GC counters; two readings bracket a timed phase.
type hostSample struct {
	cpu        time.Duration // user + system CPU time of the process
	allocBytes uint64        // cumulative heap allocation
	gcCPU      float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64       // cumulative CPU seconds available to Go (runtime estimate)
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleHost() hostSample {
	ms := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms[0].Value.Uint64(),
		gcCPU:      ms[1].Value.Float64(),
		totalCPU:   ms[2].Value.Float64(),
	}
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostMetrics derives the runtime-level per-layer metrics of a timed phase
// of wall seconds that simulated accesses controller-accesses.
func hostMetrics(before, after hostSample, wall float64, accesses uint64) map[string]metric {
	var gcFrac float64
	if total := after.totalCPU - before.totalCPU; total > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / total
	}
	return map[string]metric{
		"host.cpu_util":             {Value: (after.cpu - before.cpu).Seconds() / (wall * float64(runtime.GOMAXPROCS(0))), Unit: "frac"},
		"go.alloc_bytes_per_access": {Value: float64(after.allocBytes-before.allocBytes) / float64(max(accesses, 1)), Unit: "B/access"},
		"go.gc_cpu_frac":            {Value: gcFrac, Unit: "frac"},
	}
}
