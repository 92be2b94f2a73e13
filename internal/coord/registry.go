package coord

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// worker is one registered sramd instance: its base URL, its circuit
// breaker, and cumulative dispatch accounting.
type worker struct {
	url string
	brk *breaker

	dispatched atomic.Uint64
	succeeded  atomic.Uint64
	failed     atomic.Uint64
}

// WorkerStatus is the wire form of one registry entry for GET /v1/workers.
type WorkerStatus struct {
	URL string `json:"url"`
	// Breaker is "closed" (healthy), "open" (skipped), or "half-open" (one
	// probe dispatch in flight).
	Breaker      string `json:"breaker"`
	Dispatched   uint64 `json:"dispatched"`
	Succeeded    uint64 `json:"succeeded"`
	Failed       uint64 `json:"failed"`
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
}

// registry is the worker fleet: registration, round-robin picking that
// skips open breakers, and status snapshots.
type registry struct {
	threshold int
	cooldown  time.Duration

	mu      sync.Mutex
	workers []*worker
	byURL   map[string]*worker
	next    int
}

func newRegistry(threshold int, cooldown time.Duration) *registry {
	return &registry{threshold: threshold, cooldown: cooldown, byURL: map[string]*worker{}}
}

// normalizeWorkerURL validates and canonicalizes a worker base URL.
func normalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("coord: worker url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("coord: worker url %q: need http(s)://host[:port]", raw)
	}
	return raw, nil
}

// add registers a worker, reporting whether it was new (registration is
// idempotent by URL).
func (r *registry) add(rawURL string) (bool, error) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byURL[u] != nil {
		return false, nil
	}
	w := &worker{url: u, brk: &breaker{threshold: r.threshold, cooldown: r.cooldown}}
	r.workers = append(r.workers, w)
	r.byURL[u] = w
	return true, nil
}

// pick returns the next worker in round-robin order whose breaker admits a
// dispatch at now, or nil when every breaker is open — the dispatcher then
// backs off and retries, by which time a cooldown may have elapsed.
func (r *registry) pick(now time.Time) *worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < len(r.workers); i++ {
		w := r.workers[r.next%len(r.workers)]
		r.next++
		if w.brk.allow(now) {
			return w
		}
	}
	return nil
}

// size returns the fleet size.
func (r *registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// snapshot lists every worker's status in registration order.
func (r *registry) snapshot(now time.Time) []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerStatus, len(r.workers))
	for i, w := range r.workers {
		out[i] = WorkerStatus{
			URL:          w.url,
			Breaker:      w.brk.state(now),
			Dispatched:   w.dispatched.Load(),
			Succeeded:    w.succeeded.Load(),
			Failed:       w.failed.Load(),
			BreakerOpens: w.brk.openCount(),
		}
	}
	return out
}
