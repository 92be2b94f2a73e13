package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"cache8t/internal/rescache"
)

// latencyBuckets are the upper bounds (seconds) of the per-kind job latency
// histogram — log-spaced from a millisecond to ten seconds, plus +Inf.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// serverMetrics is the daemon's cumulative counter set, rendered by
// /metrics in Prometheus text exposition format. Counters are atomics;
// the per-kind histograms take a mutex on job completion only.
type serverMetrics struct {
	submitted atomic.Int64 // jobs accepted onto the queue
	rejected  atomic.Int64 // submissions bounced by backpressure (429/413/503)
	succeeded atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	inflight  atomic.Int64
	accesses  atomic.Int64 // accesses simulated by terminal jobs
	bytesIn   atomic.Int64 // trace bytes spooled from uploads
	busyNanos atomic.Int64 // summed job run time, for accesses/sec

	recovered    atomic.Int64 // jobs replayed from the journal at startup
	ckptWritten  atomic.Int64 // controller checkpoints written to their job's file
	ckptRestored atomic.Int64 // jobs resumed from a checkpoint (vs restarted)

	mu     sync.Mutex
	byKind map[string]*latencyHist
}

// latencyHist is one controller kind's job-latency histogram.
type latencyHist struct {
	counts []int64 // one per latencyBuckets entry
	inf    int64
	sum    float64
	n      int64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{byKind: map[string]*latencyHist{}}
}

// observe records one terminal job: its controller kind, run seconds, and
// accesses simulated.
func (m *serverMetrics) observe(kind string, seconds float64, accesses uint64, state State) {
	switch state {
	case StateSucceeded:
		m.succeeded.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	}
	m.accesses.Add(int64(accesses))
	m.busyNanos.Add(int64(seconds * 1e9))
	m.mu.Lock()
	h := m.byKind[kind]
	if h == nil {
		h = &latencyHist{counts: make([]int64, len(latencyBuckets))}
		m.byKind[kind] = h
	}
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
		}
	}
	h.inf++
	h.sum += seconds
	h.n++
	m.mu.Unlock()
}

// journalStats is the durability snapshot render emits when the daemon runs
// with a job journal (nil otherwise — the sramd_journal_* and recovery
// series are then absent).
type journalStats struct {
	// Bytes is the journal file's current size.
	Bytes int64
}

// Sample is one line of a metric family: the series the line appends to
// the family name (a suffix and label set such as `{state="failed"}` or
// `_bucket{le="0.1"}`, or "") and its value.
type Sample struct {
	Series string
	Value  any
}

// WriteFamily writes one metric family in Prometheus text exposition
// format: its # HELP and # TYPE lines, then one line per sample. Values
// print with %v, so integers print as integers and floats as %g.
func WriteFamily(w io.Writer, name, typ, help string, samples ...Sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %v\n", name, s.Series, s.Value)
	}
}

// render writes the Prometheus text exposition. queueDepth and queueCap come
// from the server's live channel state; cache is the result cache snapshot
// (nil when caching is disabled — the rescache_* series are then absent);
// journal is the durability snapshot (nil when journaling is disabled).
func (m *serverMetrics) render(w io.Writer, queueDepth, queueCap int, accepting bool, cache *rescache.Snapshot, journal *journalStats) {
	up := 0
	if accepting {
		up = 1
	}
	one := func(name, typ, help string, v any) { WriteFamily(w, name, typ, help, Sample{Value: v}) }
	one("sramd_accepting", "gauge", "Whether the daemon is accepting new jobs (0 while draining).", up)
	one("sramd_queue_depth", "gauge", "Jobs waiting on the bounded queue.", queueDepth)
	one("sramd_queue_capacity", "gauge", "Bound of the job queue; submissions beyond it get 429.", queueCap)
	one("sramd_jobs_inflight", "gauge", "Jobs currently executing.", m.inflight.Load())
	WriteFamily(w, "sramd_jobs_total", "counter", "Terminal jobs by state, plus accepted and rejected submissions.",
		Sample{`{state="submitted"}`, m.submitted.Load()},
		Sample{`{state="rejected"}`, m.rejected.Load()},
		Sample{`{state="succeeded"}`, m.succeeded.Load()},
		Sample{`{state="failed"}`, m.failed.Load()},
		Sample{`{state="cancelled"}`, m.cancelled.Load()})
	one("sramd_accesses_total", "counter", "Accesses simulated by terminal jobs.", m.accesses.Load())
	one("sramd_bytes_ingested_total", "counter", "Trace bytes spooled from uploads.", m.bytesIn.Load())
	if busy := float64(m.busyNanos.Load()) / 1e9; busy > 0 {
		one("sramd_accesses_per_second", "gauge", "Simulated accesses per busy second across terminal jobs.",
			float64(m.accesses.Load())/busy)
	}

	if journal != nil {
		one("sramd_recovered_jobs_total", "counter", "Jobs replayed from the journal at startup.", m.recovered.Load())
		one("sramd_checkpoints_written_total", "counter", "Controller checkpoints written to their job's file.", m.ckptWritten.Load())
		one("sramd_checkpoints_restored_total", "counter", "Recovered jobs resumed from a checkpoint instead of restarting.", m.ckptRestored.Load())
		one("sramd_journal_bytes", "gauge", "Current size of the job journal file.", journal.Bytes)
	}

	if cache != nil {
		WriteFamily(w, "rescache_hits_total", "counter", "Result-cache hits by serving tier.",
			Sample{`{tier="memory"}`, cache.MemHits}, Sample{`{tier="disk"}`, cache.DiskHits})
		one("rescache_misses_total", "counter", "Result-cache misses (jobs actually simulated).", cache.Misses)
		one("rescache_dedup_total", "counter", "Jobs that shared an identical in-flight computation (singleflight).", cache.Dedups)
		one("rescache_bytes_served_total", "counter", "Artifact bytes served from the cache.", cache.BytesServed)
		one("rescache_put_errors_total", "counter", "Disk-tier writes that failed (memory tier still served).", cache.PutErrors)
		one("rescache_mem_entries", "gauge", "Artifacts resident in the memory tier.", cache.MemEntries)
		one("rescache_mem_bytes", "gauge", "Bytes resident in the memory tier.", cache.MemBytes)
		one("rescache_mem_cap_bytes", "gauge", "Byte budget of the memory tier.", cache.MemCapBytes)
		WriteFamily(w, "rescache_evictions_total", "counter", "Entries evicted by tier.",
			Sample{`{tier="memory"}`, cache.MemEvictions}, Sample{`{tier="disk"}`, cache.DiskEvictions})
		if cache.Dir != "" {
			one("rescache_disk_entries", "gauge", "Entries resident in the disk tier.", cache.DiskEntries)
			one("rescache_disk_bytes", "gauge", "Bytes resident in the disk tier.", cache.DiskBytes)
			one("rescache_disk_cap_bytes", "gauge", "Byte budget of the disk tier.", cache.DiskCapBytes)
			one("rescache_corrupt_total", "counter", "Entries rejected by integrity re-verification.", cache.DiskCorrupt)
		}
	}

	m.mu.Lock()
	kinds := make([]string, 0, len(m.byKind))
	for k := range m.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var samples []Sample
	for _, k := range kinds {
		h := m.byKind[k]
		for i, le := range latencyBuckets {
			samples = append(samples, Sample{fmt.Sprintf("_bucket{controller=%q,le=%q}", k, fmt.Sprint(le)), h.counts[i]})
		}
		samples = append(samples,
			Sample{fmt.Sprintf("_bucket{controller=%q,le=\"+Inf\"}", k), h.inf},
			Sample{fmt.Sprintf("_sum{controller=%q}", k), h.sum},
			Sample{fmt.Sprintf("_count{controller=%q}", k), h.n})
	}
	m.mu.Unlock()
	WriteFamily(w, "sramd_job_seconds", "histogram", "Job run latency by controller kind.", samples...)
}
