package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"cache8t/internal/server"
)

// Handler returns the coordinator's HTTP API. It deliberately rhymes with
// the worker API: /v1/sweeps is to sweeps what /v1/jobs is to jobs, with the
// same status envelope, error envelope, and lifecycle verbs.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", c.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", c.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", c.handleResult)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", c.handleCancel)
	mux.HandleFunc("POST /v1/workers", c.handleRegisterWorker)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// errDraining answers a submission that arrives while the coordinator drains.
var errDraining = server.APIError{Error: "coordinator is draining; not accepting sweeps"}

// handleSubmit accepts a sweep: 202 with the sweep status, 400 on a
// malformed or invalid spec (field-level errors), 413 past the body limit,
// 429 when maxActiveSweeps sweeps are already active, 503 while draining.
// The drain check is repeated under mu, where the sweep is registered and
// takes its sweepWG slot, so a body still arriving when Shutdown runs is
// refused rather than accepted after the journal has closed. A sweep whose
// merged ledger is already in the result cache short-circuits to succeeded
// without a single dispatch — the sweep-level analogue of the worker's
// cache hit on submit.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !c.accepting.Load() {
		c.reject(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSweepSpecBytes))
	if err != nil {
		c.reject(w, http.StatusRequestEntityTooLarge,
			server.APIError{Error: fmt.Sprintf("sweep spec exceeds the %d-byte limit", maxSweepSpecBytes)})
		return
	}
	spec, err := DecodeSweepSpec(body)
	if err != nil {
		c.reject(w, http.StatusBadRequest, server.APIError{Error: err.Error()})
		return
	}
	if err := spec.Validate(); err != nil {
		if se, ok := err.(*SweepError); ok {
			c.reject(w, http.StatusBadRequest, server.APIError{Error: "invalid sweep spec", Fields: se.Fields})
		} else {
			c.reject(w, http.StatusBadRequest, server.APIError{Error: err.Error()})
		}
		return
	}
	hash, err := spec.Hash()
	if err != nil {
		c.reject(w, http.StatusInternalServerError, server.APIError{Error: err.Error()})
		return
	}
	points := spec.Points()

	c.mu.Lock()
	if !c.accepting.Load() {
		c.mu.Unlock()
		c.reject(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	if c.active >= maxActiveSweeps {
		c.mu.Unlock()
		c.reject(w, http.StatusTooManyRequests,
			server.APIError{Error: fmt.Sprintf("%d sweeps already active; retry later", maxActiveSweeps)})
		return
	}
	s := newSweep(c.baseCtx, c.sweeps.NextID(), spec, hash, points, c.clk.Now())
	c.sweeps.Put(s.ID, s)
	c.active++
	c.sweepWG.Add(1)
	c.mu.Unlock()
	c.met.sweepsSubmitted.Add(1)

	c.journalSweep(s, server.StateQueued, "")

	if c.cache != nil {
		if blob, _, ok := c.cache.Get("ledger:" + hash); ok {
			if l, err := DecodeLedger(blob); err == nil && l.Points == points {
				s.Start(c.clk.Now())
				s.done.Store(int64(points))
				s.cached.Store(int64(points))
				c.met.pointsCached.Add(int64(points))
				c.finishSweep(s, server.StateSucceeded, "", blob)
				c.sweepWG.Done()
				server.WriteJSON(w, http.StatusAccepted, s.status(c.clk.Now()))
				return
			}
		}
	}
	go c.runSweep(s)
	server.WriteJSON(w, http.StatusAccepted, s.status(c.clk.Now()))
}

// reject counts a refused submission and answers with the error.
func (c *Coordinator) reject(w http.ResponseWriter, code int, e server.APIError) {
	c.met.sweepsRejected.Add(1)
	server.WriteJSON(w, code, e)
}

// lookup resolves a sweep by path id, writing the 404 itself when absent.
func (c *Coordinator) lookup(w http.ResponseWriter, r *http.Request) *Sweep {
	s, ok := c.sweeps.Get(r.PathValue("id"))
	if !ok {
		server.WriteJSON(w, http.StatusNotFound, server.APIError{Error: "no such sweep"})
	}
	return s
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	now := c.clk.Now()
	sweeps := c.sweeps.List()
	out := make([]SweepStatus, len(sweeps))
	for i, s := range sweeps {
		out[i] = s.status(now)
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"sweeps": out, "count": len(out)})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s := c.lookup(w, r); s != nil {
		server.WriteJSON(w, http.StatusOK, s.status(c.clk.Now()))
	}
}

// handleResult serves the merged canonical ledger once succeeded (410 when
// a recovered sweep's ledger left the result cache), and 409 with the current state
// otherwise.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	s := c.lookup(w, r)
	if s == nil {
		return
	}
	if st := s.State(); st != server.StateSucceeded {
		server.WriteJSON(w, http.StatusConflict, server.APIError{Error: "sweep has no result", State: st})
		return
	}
	server.WriteResult(w, s.Lifecycle, c.cache, "ledger:"+s.Hash,
		fmt.Sprintf("sweep %s succeeded but its merged ledger is no longer cached; resubmit to recompute", s.ID))
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	s := c.lookup(w, r)
	if s == nil {
		return
	}
	if st := s.State(); st.Terminal() {
		server.WriteJSON(w, http.StatusConflict, server.APIError{Error: "sweep already finished", State: st})
		return
	}
	c.finishSweep(s, server.StateCancelled, "", nil)
	server.WriteJSON(w, http.StatusOK, s.status(c.clk.Now()))
}

// handleRegisterWorker adds a worker to the fleet: 201 when new, 200 when
// already registered (registration is idempotent by URL).
func (c *Coordinator) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4096))
	if err != nil {
		server.WriteJSON(w, http.StatusRequestEntityTooLarge, server.APIError{Error: "registration body too large"})
		return
	}
	var req struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.URL == "" {
		server.WriteJSON(w, http.StatusBadRequest, server.APIError{Error: `registration body must be {"url": "http://host:port"}`})
		return
	}
	added, err := c.reg.add(req.URL)
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.APIError{Error: err.Error()})
		return
	}
	code := http.StatusOK
	if added {
		code = http.StatusCreated
	}
	server.WriteJSON(w, code, map[string]any{"workers": c.reg.snapshot(c.clk.Now()), "count": c.reg.size()})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.reg.snapshot(c.clk.Now()), "count": c.reg.size()})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "version": c.cfg.Version, "workers": c.reg.size(),
	})
}

// handleReadyz reports readiness to do useful work: accepting sweeps AND at
// least one registered worker.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !c.accepting.Load():
		server.WriteJSON(w, http.StatusServiceUnavailable, server.APIError{Error: "draining"})
	case c.reg.size() == 0:
		server.WriteJSON(w, http.StatusServiceUnavailable, server.APIError{Error: "no workers registered"})
	default:
		server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	active := c.active
	c.mu.Unlock()
	journalBytes := int64(-1)
	if c.journal != nil {
		journalBytes = c.journal.Bytes()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.met.render(w, c.reg.snapshot(c.clk.Now()), active, c.accepting.Load(), journalBytes)
}
