package server

import (
	"strings"
	"testing"

	"cache8t/internal/rescache"
)

// TestMetricsRenderBytes pins the daemon's /metrics body byte for byte at
// fixed counter values, with the cache and journal series present and two
// controller kinds in the latency histogram.
func TestMetricsRenderBytes(t *testing.T) {
	m := newServerMetrics()
	m.submitted.Add(7)
	m.rejected.Add(2)
	m.inflight.Add(1)
	m.bytesIn.Add(4096)
	m.recovered.Add(3)
	m.ckptWritten.Add(5)
	m.ckptRestored.Add(1)
	m.observe("rmw", 0.003, 1000, StateSucceeded)
	m.observe("wg", 0.2, 5000, StateFailed)
	m.observe("wg", 12, 0, StateCancelled)
	snap := &rescache.Snapshot{
		MemHits: 11, DiskHits: 12, Misses: 13, Dedups: 14, BytesServed: 15, PutErrors: 16,
		MemEntries: 17, MemBytes: 18, MemCapBytes: 19, MemEvictions: 20,
		DiskEntries: 21, DiskBytes: 22, DiskCapBytes: 23, DiskEvictions: 24, DiskCorrupt: 25,
		Dir: "cas",
	}
	var b strings.Builder
	m.render(&b, 3, 64, true, snap, &journalStats{Bytes: 1234})
	if got := b.String(); got != wantServerMetrics {
		t.Fatalf("/metrics body drifted:\n%s\nwant:\n%s", got, wantServerMetrics)
	}
}

const wantServerMetrics = `# HELP sramd_accepting Whether the daemon is accepting new jobs (0 while draining).
# TYPE sramd_accepting gauge
sramd_accepting 1
# HELP sramd_queue_depth Jobs waiting on the bounded queue.
# TYPE sramd_queue_depth gauge
sramd_queue_depth 3
# HELP sramd_queue_capacity Bound of the job queue; submissions beyond it get 429.
# TYPE sramd_queue_capacity gauge
sramd_queue_capacity 64
# HELP sramd_jobs_inflight Jobs currently executing.
# TYPE sramd_jobs_inflight gauge
sramd_jobs_inflight 1
# HELP sramd_jobs_total Terminal jobs by state, plus accepted and rejected submissions.
# TYPE sramd_jobs_total counter
sramd_jobs_total{state="submitted"} 7
sramd_jobs_total{state="rejected"} 2
sramd_jobs_total{state="succeeded"} 1
sramd_jobs_total{state="failed"} 1
sramd_jobs_total{state="cancelled"} 1
# HELP sramd_accesses_total Accesses simulated by terminal jobs.
# TYPE sramd_accesses_total counter
sramd_accesses_total 6000
# HELP sramd_bytes_ingested_total Trace bytes spooled from uploads.
# TYPE sramd_bytes_ingested_total counter
sramd_bytes_ingested_total 4096
# HELP sramd_accesses_per_second Simulated accesses per busy second across terminal jobs.
# TYPE sramd_accesses_per_second gauge
sramd_accesses_per_second 491.68237318692127
# HELP sramd_recovered_jobs_total Jobs replayed from the journal at startup.
# TYPE sramd_recovered_jobs_total counter
sramd_recovered_jobs_total 3
# HELP sramd_checkpoints_written_total Controller checkpoints written to their job's file.
# TYPE sramd_checkpoints_written_total counter
sramd_checkpoints_written_total 5
# HELP sramd_checkpoints_restored_total Recovered jobs resumed from a checkpoint instead of restarting.
# TYPE sramd_checkpoints_restored_total counter
sramd_checkpoints_restored_total 1
# HELP sramd_journal_bytes Current size of the job journal file.
# TYPE sramd_journal_bytes gauge
sramd_journal_bytes 1234
# HELP rescache_hits_total Result-cache hits by serving tier.
# TYPE rescache_hits_total counter
rescache_hits_total{tier="memory"} 11
rescache_hits_total{tier="disk"} 12
# HELP rescache_misses_total Result-cache misses (jobs actually simulated).
# TYPE rescache_misses_total counter
rescache_misses_total 13
# HELP rescache_dedup_total Jobs that shared an identical in-flight computation (singleflight).
# TYPE rescache_dedup_total counter
rescache_dedup_total 14
# HELP rescache_bytes_served_total Artifact bytes served from the cache.
# TYPE rescache_bytes_served_total counter
rescache_bytes_served_total 15
# HELP rescache_put_errors_total Disk-tier writes that failed (memory tier still served).
# TYPE rescache_put_errors_total counter
rescache_put_errors_total 16
# HELP rescache_mem_entries Artifacts resident in the memory tier.
# TYPE rescache_mem_entries gauge
rescache_mem_entries 17
# HELP rescache_mem_bytes Bytes resident in the memory tier.
# TYPE rescache_mem_bytes gauge
rescache_mem_bytes 18
# HELP rescache_mem_cap_bytes Byte budget of the memory tier.
# TYPE rescache_mem_cap_bytes gauge
rescache_mem_cap_bytes 19
# HELP rescache_evictions_total Entries evicted by tier.
# TYPE rescache_evictions_total counter
rescache_evictions_total{tier="memory"} 20
rescache_evictions_total{tier="disk"} 24
# HELP rescache_disk_entries Entries resident in the disk tier.
# TYPE rescache_disk_entries gauge
rescache_disk_entries 21
# HELP rescache_disk_bytes Bytes resident in the disk tier.
# TYPE rescache_disk_bytes gauge
rescache_disk_bytes 22
# HELP rescache_disk_cap_bytes Byte budget of the disk tier.
# TYPE rescache_disk_cap_bytes gauge
rescache_disk_cap_bytes 23
# HELP rescache_corrupt_total Entries rejected by integrity re-verification.
# TYPE rescache_corrupt_total counter
rescache_corrupt_total 25
# HELP sramd_job_seconds Job run latency by controller kind.
# TYPE sramd_job_seconds histogram
sramd_job_seconds_bucket{controller="rmw",le="0.001"} 0
sramd_job_seconds_bucket{controller="rmw",le="0.005"} 1
sramd_job_seconds_bucket{controller="rmw",le="0.025"} 1
sramd_job_seconds_bucket{controller="rmw",le="0.1"} 1
sramd_job_seconds_bucket{controller="rmw",le="0.5"} 1
sramd_job_seconds_bucket{controller="rmw",le="2.5"} 1
sramd_job_seconds_bucket{controller="rmw",le="10"} 1
sramd_job_seconds_bucket{controller="rmw",le="+Inf"} 1
sramd_job_seconds_sum{controller="rmw"} 0.003
sramd_job_seconds_count{controller="rmw"} 1
sramd_job_seconds_bucket{controller="wg",le="0.001"} 0
sramd_job_seconds_bucket{controller="wg",le="0.005"} 0
sramd_job_seconds_bucket{controller="wg",le="0.025"} 0
sramd_job_seconds_bucket{controller="wg",le="0.1"} 0
sramd_job_seconds_bucket{controller="wg",le="0.5"} 1
sramd_job_seconds_bucket{controller="wg",le="2.5"} 1
sramd_job_seconds_bucket{controller="wg",le="10"} 1
sramd_job_seconds_bucket{controller="wg",le="+Inf"} 2
sramd_job_seconds_sum{controller="wg"} 12.2
sramd_job_seconds_count{controller="wg"} 2
`
