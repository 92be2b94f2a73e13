package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"cache8t/internal/coord"
	"cache8t/internal/server"
)

// client is a minimal API client for a worker or a coordinator.
type client struct {
	base string
}

// open issues one request and requires status want, returning the response
// with its body unread. Any other status is an error that carries the body
// (the API explains itself there) and the code, for callers that branch.
func (c *client) open(ctx context.Context, method, path string, body []byte, want int) (*http.Response, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != want {
		defer resp.Body.Close()
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return nil, resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return resp, resp.StatusCode, nil
}

// send is open plus the whole body, which lands in out: raw when out is a
// *[]byte, JSON-decoded otherwise, dropped when nil.
func (c *client) send(ctx context.Context, method, path string, body []byte, want int, out any) (int, error) {
	resp, code, err := c.open(ctx, method, path, body, want)
	if err != nil {
		return code, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if raw, ok := out.(*[]byte); ok {
		*raw = b
	} else if err == nil && out != nil {
		err = json.Unmarshal(b, out)
	}
	return code, err
}

// get fetches path's raw body.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	var b []byte
	_, err := c.send(ctx, http.MethodGet, path, nil, http.StatusOK, &b)
	return b, err
}

// sleep waits d, or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// poll GETs the JSON status at path every interval until done reports true
// or an error, and returns the last status read.
func poll[T any](ctx context.Context, c *client, path string, every time.Duration, done func(T) (bool, error)) (T, error) {
	for {
		var st T
		if _, err := c.send(ctx, http.MethodGet, path, nil, http.StatusOK, &st); err != nil {
			return st, err
		}
		if ok, err := done(st); ok || err != nil {
			return st, err
		}
		if err := sleep(ctx, every); err != nil {
			return st, err
		}
	}
}

// submitJob POSTs spec and returns its 202 status without waiting for the
// job. A full queue (429) is backpressure, not an error: back off, retry.
func (c *client) submitJob(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return server.JobStatus{}, err
	}
	for {
		var st server.JobStatus
		code, err := c.send(ctx, http.MethodPost, "/v1/jobs", canon, http.StatusAccepted, &st)
		if code != http.StatusTooManyRequests {
			return st, err
		}
		if err := sleep(ctx, 10*time.Millisecond); err != nil {
			return st, err
		}
	}
}

// finish waits on the SSE stream for a submitted job to end, unless it has
// already (as a cache hit's 202 has), requires success, fetches the result.
func (c *client) finish(ctx context.Context, st server.JobStatus) (server.JobStatus, []byte, error) {
	var err error
	if !st.State.Terminal() {
		if st, err = c.waitTerminal(ctx, st.ID); err != nil {
			return st, nil, err
		}
	}
	if st.State != server.StateSucceeded {
		return st, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	art, err := c.get(ctx, "/v1/jobs/"+st.ID+"/result")
	return st, art, err
}

// runSweep submits spec to a coordinator, polls it until terminal, handing
// each status to onPoll, requires success, and fetches the merged ledger.
func (c *client) runSweep(ctx context.Context, spec coord.SweepSpec, every time.Duration, onPoll func(coord.SweepStatus)) (coord.SweepStatus, []byte, error) {
	canon, err := spec.Canonical()
	if err != nil {
		return coord.SweepStatus{}, nil, err
	}
	var st coord.SweepStatus
	if _, err := c.send(ctx, http.MethodPost, "/v1/sweeps", canon, http.StatusAccepted, &st); err != nil {
		return st, nil, err
	}
	log.Printf("sweep %s accepted: %d points", st.ID, st.Points)
	st, err = poll(ctx, c, "/v1/sweeps/"+st.ID, every, func(st coord.SweepStatus) (bool, error) {
		if onPoll != nil {
			onPoll(st)
		}
		return st.State.Terminal(), nil
	})
	if err == nil && st.State != server.StateSucceeded {
		err = fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		return st, nil, err
	}
	log.Printf("sweep %s succeeded with %d redispatch(es)", st.ID, st.Retries)
	ledger, err := c.get(ctx, "/v1/sweeps/"+st.ID+"/result")
	return st, ledger, err
}

// waitTerminal follows the job's SSE stream until a terminal status event.
// Frames are told apart by event name: a recovered job's stream opens with
// an `event: recovered` frame, which is not part of the status stream.
func (c *client) waitTerminal(ctx context.Context, id string) (server.JobStatus, error) {
	resp, _, err := c.open(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, http.StatusOK)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var last server.JobStatus
	var event string
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok || line == "" {
			event = name // a blank line ends the frame
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "status" {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				return server.JobStatus{}, err
			}
			if last.State.Terminal() {
				return last, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return server.JobStatus{}, err
	}
	return last, fmt.Errorf("event stream for %s ended before a terminal state", id)
}

// procs are the sramd processes one run spawned: the front daemon the
// client talks to (a lone daemon, or a coordinator) plus its workers.
type procs struct {
	bin     string
	args    []string // the front's flags, kept for a restart
	front   *spawnedDaemon
	workers []*spawnedDaemon
}

// spawnProcs starts workers single-worker daemons, then the front daemon
// with args: a coordinator of those workers when there are any.
func spawnProcs(ctx context.Context, bin string, workers int, args []string) (*procs, error) {
	p := &procs{bin: bin, args: args}
	var peers []string
	for range workers {
		w, err := spawnDaemon(bin, "-workers", "1")
		if err != nil {
			p.kill()
			return nil, err
		}
		p.workers = append(p.workers, w)
		peers = append(peers, w.base)
	}
	if workers > 0 {
		p.args = append([]string{"-coordinator", "-peers", strings.Join(peers, ",")}, args...)
	}
	if err := p.spawnFront(ctx); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// spawnFront (re)starts the front daemon and requires /healthz to answer,
// at once: a daemon prints its address only once it is serving.
func (p *procs) spawnFront(ctx context.Context) error {
	d, err := spawnDaemon(p.bin, p.args...)
	if err != nil {
		return err
	}
	p.front = d
	if _, err := d.get(ctx, "/healthz"); err != nil {
		return fmt.Errorf("daemon not healthy: %w", err)
	}
	return nil
}

// stop sends SIGTERM to every process still running, front first, and
// requires each to exit cleanly. Killed processes are skipped.
func (p *procs) stop() error {
	for _, d := range append([]*spawnedDaemon{p.front}, p.workers...) {
		if err := d.stopGracefully(); err != nil {
			return fmt.Errorf("graceful shutdown of %s: %w", d.base, err)
		}
	}
	log.Printf("every surviving process exited cleanly on SIGTERM")
	return nil
}

// kill is the deferred safety net: SIGKILL everything still running.
func (p *procs) kill() {
	for _, d := range append([]*spawnedDaemon{p.front}, p.workers...) {
		if d != nil {
			d.kill()
		}
	}
}

// spawnedDaemon is an sramd child process started for this run, with a
// client for its API.
type spawnedDaemon struct {
	client
	cmd *exec.Cmd
}

// spawnDaemon starts bin on an ephemeral port with extra flags and scrapes
// the resolved address from its single stdout line.
func spawnDaemon(bin string, extra ...string) (*spawnedDaemon, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, extra...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if base, ok := strings.CutPrefix(sc.Text(), "sramd listening on "); ok {
			go io.Copy(io.Discard, stdout) // keep draining so the child never blocks
			log.Printf("spawned sramd %s at %s (pid %d)", strings.Join(extra, " "), base, cmd.Process.Pid)
			return &spawnedDaemon{client{strings.TrimSpace(base)}, cmd}, nil
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, fmt.Errorf("%s exited before printing its listen address", bin)
}

// stopGracefully sends SIGTERM and requires a clean (exit 0) shutdown
// within 30s. A daemon already reaped is skipped.
func (d *spawnedDaemon) stopGracefully() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	deadline := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	switch {
	case !deadline.Stop():
		return errors.New("daemon did not exit within 30s of SIGTERM")
	case err != nil:
		return fmt.Errorf("daemon exited uncleanly: %w", err)
	}
	return nil
}

// kill sends SIGKILL and reaps the process, unless it is already reaped.
func (d *spawnedDaemon) kill() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}
