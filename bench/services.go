package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"cache8t/internal/coord"
	"cache8t/internal/rescache"
	"cache8t/internal/server"
)

// shutdownTimeout bounds how long a stopping service may drain.
const shutdownTimeout = 30 * time.Second

// client is a minimal HTTP client for the job server and coordinator APIs.
// Its transport opens at most loadGoroutines connections to its host.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     loadGoroutines,
		MaxIdleConnsPerHost: loadGoroutines,
	}}}
}

// do performs one request and returns the body and status code.
func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// get fetches path and fails on any status but 200.
func (c *client) get(path string) ([]byte, error) {
	b, code, err := c.do(http.MethodGet, path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, code, strings.TrimSpace(string(b)))
	}
	return b, err
}

// metricSum sums every series of the named metric on /metrics.
func (c *client) metricSum(name string) (float64, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return 0, err
	}
	var sum float64
	found := false
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			series = line[:i]
		}
		if series != name {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metric %s: %w", name, err)
		}
		sum += v
		found = true
	}
	if !found {
		return 0, fmt.Errorf("metric %s not exposed", name)
	}
	return sum, nil
}

// jobSample is one submission seen from the client.
type jobSample struct {
	latency  time.Duration
	hit      bool
	queueMS  float64
	runMS    float64
	accesses uint64
}

// runJob submits spec, follows the job's event stream to its terminal
// status when the submission did not finish at once (a cache hit does),
// and fetches the artifact. Calls are recorded as children of op; the
// job's reported queue and run times become children of the wait.
func (c *client) runJob(spec server.JobSpec, op span) (jobSample, []byte, error) {
	body, err := spec.Canonical()
	if err != nil {
		return jobSample{}, nil, err
	}
	sp := op.child("http.submit")
	b, code, err := c.do(http.MethodPost, "/v1/jobs", body)
	sp.end()
	if err != nil {
		return jobSample{}, nil, err
	}
	if code != http.StatusAccepted {
		return jobSample{}, nil, fmt.Errorf("submit: status %d: %s", code, strings.TrimSpace(string(b)))
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return jobSample{}, nil, fmt.Errorf("submit: %w", err)
	}
	if !st.State.Terminal() {
		wait := op.child("http.events")
		st, err = c.events(st.ID)
		done := time.Now()
		wait.end()
		if err != nil {
			return jobSample{}, nil, err
		}
		// The job reports durations, not instants; anchor them where the
		// client saw the terminal status, which is at or after the real end.
		runStart := done.Add(-msDuration(st.RunMS))
		wait.add("server.queue", runStart.Add(-msDuration(st.QueueMS)), runStart)
		wait.add("server.run", runStart, done)
	}
	if st.State != server.StateSucceeded {
		return jobSample{}, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	sp = op.child("http.result")
	art, err := c.get("/v1/jobs/" + st.ID + "/result")
	sp.end()
	if err != nil {
		return jobSample{}, nil, err
	}
	return jobSample{hit: st.Cached, queueMS: st.QueueMS, runMS: st.RunMS, accesses: st.Accesses}, art, nil
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// events follows a job's server-sent events until a terminal "status"
// event. Frames are matched by event name: a "recovered" frame also carries
// a status and must not be mistaken for one.
func (c *client) events(id string) (server.JobStatus, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return server.JobStatus{}, fmt.Errorf("events %s: status %d: %s", id, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "status":
			var st server.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return server.JobStatus{}, err
			}
			if st.State.Terminal() {
				return st, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return server.JobStatus{}, err
	}
	return server.JobStatus{}, fmt.Errorf("events %s: stream ended before a terminal status", id)
}

// jobServer is a job server as sramd runs without -cache-dir or
// -journal-dir: a memory-tier result cache and no journal, behind a
// loopback listener. Those are off because fsync latency on the reference
// host varies tenfold from second to second; the layer probes time the
// journal and the disk tier on their own.
type jobServer struct {
	cache *rescache.Cache
	srv   *server.Server
	ts    *httptest.Server
	cl    *client
	seen  int // jobs already attributed to a sweep
}

func startJobServer(dir string, workers int) (*jobServer, error) {
	c, err := rescache.Open(rescache.Config{})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: workers, Cache: c, SpoolDir: dir, Version: "bench"})
	if err != nil {
		c.Close()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &jobServer{cache: c, srv: srv, ts: ts, cl: newClient(ts.URL)}, nil
}

// close stops accepting connections, drains the server and releases its
// cache.
func (j *jobServer) close() error {
	j.cl.hc.CloseIdleConnections()
	j.ts.Close()
	ctx, cancel := context.WithTimeout(background, shutdownTimeout)
	defer cancel()
	return errors.Join(j.srv.Shutdown(ctx), j.cache.Close())
}

// fleetStack is a coordinator dispatching to single-worker job servers.
type fleetStack struct {
	nodes   []*jobServer
	coCache *rescache.Cache
	co      *coord.Coordinator
	ts      *httptest.Server
	cl      *client
}

// fleetWorkers and fleetDispatch size the fleet: two single-job workers,
// two concurrent dispatches per sweep.
const (
	fleetWorkers  = 2
	fleetDispatch = 2
)

func startFleet(dir string) (*fleetStack, error) {
	f := &fleetStack{}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		n, err := startJobServer(dir, 1)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.ts.URL)
	}
	c, err := rescache.Open(rescache.Config{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coCache = c
	co, err := coord.New(coord.Config{Workers: urls, DispatchParallel: fleetDispatch, Cache: c, Version: "bench"})
	if err != nil {
		f.close()
		return nil, err
	}
	f.co = co
	f.ts = httptest.NewServer(co.Handler())
	f.cl = newClient(f.ts.URL)
	return f, nil
}

func (f *fleetStack) close() error {
	ctx, cancel := context.WithTimeout(background, shutdownTimeout)
	defer cancel()
	var errs []error
	if f.ts != nil {
		f.cl.hc.CloseIdleConnections()
		f.ts.Close()
	}
	if f.co != nil {
		errs = append(errs, f.co.Shutdown(ctx))
	}
	if f.coCache != nil {
		errs = append(errs, f.coCache.Close())
	}
	for _, n := range f.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

// newJobs returns the jobs the worker accepted since the last call, in
// submission order.
func (n *jobServer) newJobs() ([]server.JobStatus, error) {
	b, err := n.cl.get("/v1/jobs")
	if err != nil {
		return nil, err
	}
	var jobs []server.JobStatus
	if err := json.Unmarshal(b, &jobs); err != nil {
		return nil, err
	}
	fresh := jobs[min(n.seen, len(jobs)):]
	n.seen = len(jobs)
	return fresh, nil
}

// skipJobs marks every job the workers have run so far as attributed, so
// the next analyze sees only later sweeps.
func (f *fleetStack) skipJobs() error {
	for _, n := range f.nodes {
		if _, err := n.newJobs(); err != nil {
			return err
		}
	}
	return nil
}

// sweepSample is one sweep seen from the client, with what the workers
// reported about its points.
type sweepSample struct {
	wall   time.Duration
	points int
	runMS  []float64     // each point's run time on its worker
	idle   time.Duration // wait during which no worker had a point queued or running
	merge  time.Duration // coord.MergeLedger over the fetched artifacts
}

// sweepPollInterval spaces the client's sweep-status polls.
const sweepPollInterval = 5 * time.Millisecond

// runSweep submits spec, polls the sweep to a terminal state and fetches
// the merged ledger. Calls are recorded as children of op; it returns the
// ledger and the wait span so the caller can attribute worker jobs to it.
func (f *fleetStack) runSweep(spec coord.SweepSpec, op span) ([]byte, span, error) {
	body, err := spec.Canonical()
	if err != nil {
		return nil, span{}, err
	}
	sp := op.child("http.submit")
	b, code, err := f.cl.do(http.MethodPost, "/v1/sweeps", body)
	sp.end()
	if err != nil {
		return nil, span{}, err
	}
	if code != http.StatusAccepted {
		return nil, span{}, fmt.Errorf("submit sweep: status %d: %s", code, strings.TrimSpace(string(b)))
	}
	var st coord.SweepStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, span{}, err
	}
	wait := op.child("http.poll")
	for !st.State.Terminal() {
		time.Sleep(sweepPollInterval)
		if b, err = f.cl.get("/v1/sweeps/" + st.ID); err == nil {
			err = json.Unmarshal(b, &st)
		}
		if err != nil {
			wait.end()
			return nil, span{}, err
		}
	}
	wait.end()
	if st.State != server.StateSucceeded {
		return nil, span{}, fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
	}
	sp = op.child("http.result")
	ledger, err := f.cl.get("/v1/sweeps/" + st.ID + "/result")
	sp.end()
	return ledger, wait, err
}

// analyze attributes the jobs the workers ran since the last call to the
// sweep whose wait span is wait, records them as its children, and times a
// re-merge of the sweep's artifacts.
func (f *fleetStack) analyze(ledger []byte, wall time.Duration, wait span) (sweepSample, error) {
	s := sweepSample{wall: wall}
	var busy []Span
	for _, n := range f.nodes {
		jobs, err := n.newJobs()
		if err != nil {
			return s, err
		}
		for _, j := range jobs {
			start := time.UnixMilli(j.SubmittedUnixMS)
			runStart := start.Add(msDuration(j.QueueMS))
			end := runStart.Add(msDuration(j.RunMS))
			js := wait.add("server.job", start, end)
			js.add("server.queue", start, runStart)
			js.add("server.run", runStart, end)
			busy = append(busy, Span{Start: start.UnixNano(), End: end.UnixNano()})
			s.runMS = append(s.runMS, j.RunMS)
		}
	}
	s.points = len(s.runMS)
	s.idle = wait.stop.Sub(wait.start) - time.Duration(covered(wait.start.UnixNano(), wait.stop.UnixNano(), busy))

	l, err := coord.DecodeLedger(ledger)
	if err != nil {
		return s, err
	}
	arts := make([][]byte, len(l.Artifacts))
	for i, a := range l.Artifacts {
		arts[i] = a
	}
	m := wait.tr.root("coord.merge")
	merged, err := coord.MergeLedger(l.SweepHash, arts)
	s.merge = m.end()
	if err != nil {
		return s, err
	}
	if !bytes.Equal(merged, ledger) {
		return s, errors.New("re-merging the fetched artifacts changed the ledger")
	}
	return s, nil
}
