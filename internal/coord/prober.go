package coord

import (
	"net/http"
	"sync"
)

// This file is the active health prober (ROADMAP item 2a). Without it, a
// worker's breaker only moves when real dispatches hit the worker: a box
// that dies between sweeps is discovered by burning dispatch attempts, and
// one that recovers waits for a half-open probe dispatch to close its
// breaker. The prober adds a background signal: every ProbeInterval it GETs
// each worker's /healthz and feeds the outcome into that worker's breaker
// through the same success/failure entry points a dispatch uses — so a dead
// worker's breaker opens within threshold×interval even on an idle
// coordinator, and a recovered worker's breaker closes from a cheap probe
// instead of absorbing (and possibly failing) a real point.

// probeLoop ticks on the coordinator's clock until shutdown. The loop
// re-arms only after the slowest probe of a cycle resolves, so cycles never
// pile up on a slow fleet.
func (c *Coordinator) probeLoop() {
	defer c.proberWG.Done()
	for c.sleep(c.baseCtx, c.cfg.ProbeInterval) == nil {
		c.probeOnce()
	}
}

// probeOnce probes every registered worker concurrently and waits for the
// cycle to finish.
func (c *Coordinator) probeOnce() {
	var wg sync.WaitGroup
	for _, w := range c.reg.all() {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probeWorker(w)
		}(w)
	}
	wg.Wait()
}

// probeWorker GETs one worker's /healthz, bounded by one ProbeInterval on
// the coordinator's clock, and feeds the breaker. Probes deliberately skip
// breaker.allow: an open breaker keeps real dispatches away, but probing
// must continue through the open window — a probe success is exactly what
// lets a recovered worker rejoin the fleet without waiting out a cooldown.
func (c *Coordinator) probeWorker(w *worker) {
	deadline := c.clk.Now().Add(c.cfg.ProbeInterval)
	_, code, err := c.doBounded(c.baseCtx, http.MethodGet, w.url+"/healthz", nil, deadline)
	if err == nil && code == http.StatusOK {
		c.met.probesOK.Add(1)
		w.brk.success()
		return
	}
	c.met.probesFailed.Add(1)
	if w.brk.failure(c.clk.Now()) {
		c.met.breakerOpens.Add(1)
	}
}
