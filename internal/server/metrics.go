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
	ckptWritten  atomic.Int64 // controller checkpoints persisted to the CAS
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

// render writes the Prometheus text exposition. queueDepth and queueCap come
// from the server's live channel state; cache is the result cache snapshot
// (nil when caching is disabled — the rescache_* series are then absent);
// journal is the durability snapshot (nil when journaling is disabled).
func (m *serverMetrics) render(w io.Writer, queueDepth, queueCap int, accepting bool, cache *rescache.Snapshot, journal *journalStats) {
	up := 0
	if accepting {
		up = 1
	}
	fmt.Fprintf(w, "# HELP sramd_accepting Whether the daemon is accepting new jobs (0 while draining).\n")
	fmt.Fprintf(w, "# TYPE sramd_accepting gauge\nsramd_accepting %d\n", up)
	fmt.Fprintf(w, "# HELP sramd_queue_depth Jobs waiting on the bounded queue.\n")
	fmt.Fprintf(w, "# TYPE sramd_queue_depth gauge\nsramd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP sramd_queue_capacity Bound of the job queue; submissions beyond it get 429.\n")
	fmt.Fprintf(w, "# TYPE sramd_queue_capacity gauge\nsramd_queue_capacity %d\n", queueCap)
	fmt.Fprintf(w, "# HELP sramd_jobs_inflight Jobs currently executing.\n")
	fmt.Fprintf(w, "# TYPE sramd_jobs_inflight gauge\nsramd_jobs_inflight %d\n", m.inflight.Load())

	fmt.Fprintf(w, "# HELP sramd_jobs_total Terminal jobs by state, plus accepted and rejected submissions.\n")
	fmt.Fprintf(w, "# TYPE sramd_jobs_total counter\n")
	fmt.Fprintf(w, "sramd_jobs_total{state=\"submitted\"} %d\n", m.submitted.Load())
	fmt.Fprintf(w, "sramd_jobs_total{state=\"rejected\"} %d\n", m.rejected.Load())
	fmt.Fprintf(w, "sramd_jobs_total{state=\"succeeded\"} %d\n", m.succeeded.Load())
	fmt.Fprintf(w, "sramd_jobs_total{state=\"failed\"} %d\n", m.failed.Load())
	fmt.Fprintf(w, "sramd_jobs_total{state=\"cancelled\"} %d\n", m.cancelled.Load())

	fmt.Fprintf(w, "# HELP sramd_accesses_total Accesses simulated by terminal jobs.\n")
	fmt.Fprintf(w, "# TYPE sramd_accesses_total counter\nsramd_accesses_total %d\n", m.accesses.Load())
	fmt.Fprintf(w, "# HELP sramd_bytes_ingested_total Trace bytes spooled from uploads.\n")
	fmt.Fprintf(w, "# TYPE sramd_bytes_ingested_total counter\nsramd_bytes_ingested_total %d\n", m.bytesIn.Load())
	if busy := float64(m.busyNanos.Load()) / 1e9; busy > 0 {
		fmt.Fprintf(w, "# HELP sramd_accesses_per_second Simulated accesses per busy second across terminal jobs.\n")
		fmt.Fprintf(w, "# TYPE sramd_accesses_per_second gauge\nsramd_accesses_per_second %g\n",
			float64(m.accesses.Load())/busy)
	}

	if journal != nil {
		fmt.Fprintf(w, "# HELP sramd_recovered_jobs_total Jobs replayed from the journal at startup.\n")
		fmt.Fprintf(w, "# TYPE sramd_recovered_jobs_total counter\nsramd_recovered_jobs_total %d\n", m.recovered.Load())
		fmt.Fprintf(w, "# HELP sramd_checkpoints_written_total Controller checkpoints persisted to the result cache.\n")
		fmt.Fprintf(w, "# TYPE sramd_checkpoints_written_total counter\nsramd_checkpoints_written_total %d\n", m.ckptWritten.Load())
		fmt.Fprintf(w, "# HELP sramd_checkpoints_restored_total Recovered jobs resumed from a checkpoint instead of restarting.\n")
		fmt.Fprintf(w, "# TYPE sramd_checkpoints_restored_total counter\nsramd_checkpoints_restored_total %d\n", m.ckptRestored.Load())
		fmt.Fprintf(w, "# HELP sramd_journal_bytes Current size of the job journal file.\n")
		fmt.Fprintf(w, "# TYPE sramd_journal_bytes gauge\nsramd_journal_bytes %d\n", journal.Bytes)
	}

	if cache != nil {
		fmt.Fprintf(w, "# HELP rescache_hits_total Result-cache hits by serving tier.\n")
		fmt.Fprintf(w, "# TYPE rescache_hits_total counter\n")
		fmt.Fprintf(w, "rescache_hits_total{tier=\"memory\"} %d\n", cache.MemHits)
		fmt.Fprintf(w, "rescache_hits_total{tier=\"disk\"} %d\n", cache.DiskHits)
		fmt.Fprintf(w, "# HELP rescache_misses_total Result-cache misses (jobs actually simulated).\n")
		fmt.Fprintf(w, "# TYPE rescache_misses_total counter\nrescache_misses_total %d\n", cache.Misses)
		fmt.Fprintf(w, "# HELP rescache_dedup_total Jobs that shared an identical in-flight computation (singleflight).\n")
		fmt.Fprintf(w, "# TYPE rescache_dedup_total counter\nrescache_dedup_total %d\n", cache.Dedups)
		fmt.Fprintf(w, "# HELP rescache_bytes_served_total Artifact bytes served from the cache.\n")
		fmt.Fprintf(w, "# TYPE rescache_bytes_served_total counter\nrescache_bytes_served_total %d\n", cache.BytesServed)
		fmt.Fprintf(w, "# HELP rescache_put_errors_total Disk-tier writes that failed (memory tier still served).\n")
		fmt.Fprintf(w, "# TYPE rescache_put_errors_total counter\nrescache_put_errors_total %d\n", cache.PutErrors)
		fmt.Fprintf(w, "# HELP rescache_mem_entries Artifacts resident in the memory tier.\n")
		fmt.Fprintf(w, "# TYPE rescache_mem_entries gauge\nrescache_mem_entries %d\n", cache.MemEntries)
		fmt.Fprintf(w, "# HELP rescache_mem_bytes Bytes resident in the memory tier.\n")
		fmt.Fprintf(w, "# TYPE rescache_mem_bytes gauge\nrescache_mem_bytes %d\n", cache.MemBytes)
		fmt.Fprintf(w, "# HELP rescache_mem_cap_bytes Byte budget of the memory tier.\n")
		fmt.Fprintf(w, "# TYPE rescache_mem_cap_bytes gauge\nrescache_mem_cap_bytes %d\n", cache.MemCapBytes)
		fmt.Fprintf(w, "# HELP rescache_evictions_total Entries evicted by tier.\n")
		fmt.Fprintf(w, "# TYPE rescache_evictions_total counter\n")
		fmt.Fprintf(w, "rescache_evictions_total{tier=\"memory\"} %d\n", cache.MemEvictions)
		fmt.Fprintf(w, "rescache_evictions_total{tier=\"disk\"} %d\n", cache.DiskEvictions)
		if cache.Dir != "" {
			fmt.Fprintf(w, "# HELP rescache_disk_entries Blobs resident in the disk CAS.\n")
			fmt.Fprintf(w, "# TYPE rescache_disk_entries gauge\nrescache_disk_entries %d\n", cache.DiskEntries)
			fmt.Fprintf(w, "# HELP rescache_disk_bytes Bytes resident in the disk CAS.\n")
			fmt.Fprintf(w, "# TYPE rescache_disk_bytes gauge\nrescache_disk_bytes %d\n", cache.DiskBytes)
			fmt.Fprintf(w, "# HELP rescache_disk_cap_bytes Byte budget of the disk CAS.\n")
			fmt.Fprintf(w, "# TYPE rescache_disk_cap_bytes gauge\nrescache_disk_cap_bytes %d\n", cache.DiskCapBytes)
			fmt.Fprintf(w, "# HELP rescache_corrupt_total Blobs or key links rejected by integrity re-verification.\n")
			fmt.Fprintf(w, "# TYPE rescache_corrupt_total counter\nrescache_corrupt_total %d\n", cache.DiskCorrupt)
		}
	}

	m.mu.Lock()
	kinds := make([]string, 0, len(m.byKind))
	for k := range m.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "# HELP sramd_job_seconds Job run latency by controller kind.\n")
	fmt.Fprintf(w, "# TYPE sramd_job_seconds histogram\n")
	for _, k := range kinds {
		h := m.byKind[k]
		for i, le := range latencyBuckets {
			fmt.Fprintf(w, "sramd_job_seconds_bucket{controller=%q,le=%q} %d\n", k, fmt.Sprint(le), h.counts[i])
		}
		fmt.Fprintf(w, "sramd_job_seconds_bucket{controller=%q,le=\"+Inf\"} %d\n", k, h.inf)
		fmt.Fprintf(w, "sramd_job_seconds_sum{controller=%q} %g\n", k, h.sum)
		fmt.Fprintf(w, "sramd_job_seconds_count{controller=%q} %d\n", k, h.n)
	}
	m.mu.Unlock()
}
