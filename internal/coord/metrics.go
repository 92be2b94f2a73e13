package coord

import (
	"fmt"
	"io"
	"sync/atomic"

	"cache8t/internal/server"
)

// coordMetrics is the coordinator's cumulative counter set, rendered by
// /metrics in Prometheus text exposition format.
type coordMetrics struct {
	sweepsSubmitted atomic.Int64
	sweepsRejected  atomic.Int64 // bounced by validation, a full active table, or drain
	sweepsSucceeded atomic.Int64
	sweepsFailed    atomic.Int64
	sweepsCancelled atomic.Int64
	sweepsRecovered atomic.Int64 // replayed from the journal at startup

	pointsDispatched atomic.Int64 // dispatch attempts sent to workers
	pointsSucceeded  atomic.Int64 // points finished with a verified artifact
	pointsCached     atomic.Int64 // points served from the result cache, never dispatched
	redispatches     atomic.Int64 // failed/timed-out attempts retried elsewhere
	corruptArtifacts atomic.Int64 // fetched artifacts rejected by hash verification
	breakerOpens     atomic.Int64 // worker breaker open transitions
}

// render writes the Prometheus exposition. workers and activeSweeps come
// from live coordinator state; journalBytes < 0 means no journal.
func (m *coordMetrics) render(w io.Writer, workers []WorkerStatus, activeSweeps int, accepting bool, journalBytes int64) {
	up := 0
	if accepting {
		up = 1
	}
	one := func(name, typ, help string, v any) { server.WriteFamily(w, name, typ, help, server.Sample{Value: v}) }
	one("coord_accepting", "gauge", "Whether the coordinator is accepting new sweeps (0 while draining).", up)
	one("coord_sweeps_active", "gauge", "Sweeps currently queued or dispatching.", activeSweeps)
	server.WriteFamily(w, "coord_sweeps_total", "counter", "Terminal sweeps by state, plus accepted/rejected/recovered submissions.",
		server.Sample{Series: `{state="submitted"}`, Value: m.sweepsSubmitted.Load()},
		server.Sample{Series: `{state="rejected"}`, Value: m.sweepsRejected.Load()},
		server.Sample{Series: `{state="succeeded"}`, Value: m.sweepsSucceeded.Load()},
		server.Sample{Series: `{state="failed"}`, Value: m.sweepsFailed.Load()},
		server.Sample{Series: `{state="cancelled"}`, Value: m.sweepsCancelled.Load()},
		server.Sample{Series: `{state="recovered"}`, Value: m.sweepsRecovered.Load()})
	server.WriteFamily(w, "coord_points_total", "counter", "Point dispatch accounting across all sweeps.",
		server.Sample{Series: `{event="dispatched"}`, Value: m.pointsDispatched.Load()},
		server.Sample{Series: `{event="succeeded"}`, Value: m.pointsSucceeded.Load()},
		server.Sample{Series: `{event="cached"}`, Value: m.pointsCached.Load()})
	one("coord_redispatches_total", "counter", "Failed or timed-out dispatch attempts that were retried.", m.redispatches.Load())
	one("coord_corrupt_artifacts_total", "counter", "Fetched artifacts rejected by config-hash verification (never merged).", m.corruptArtifacts.Load())
	one("coord_breaker_opens_total", "counter", "Worker circuit-breaker open transitions.", m.breakerOpens.Load())

	byState := map[string]int{}
	for _, ws := range workers {
		byState[ws.Breaker]++
	}
	var samples []server.Sample
	for _, st := range []string{"closed", "half-open", "open"} {
		samples = append(samples, server.Sample{Series: fmt.Sprintf("{breaker=%q}", st), Value: byState[st]})
	}
	server.WriteFamily(w, "coord_workers", "gauge", "Registered workers by breaker state.", samples...)

	if journalBytes >= 0 {
		one("coord_journal_bytes", "gauge", "Current size of the sweep journal file.", journalBytes)
	}
}
