package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark is sized for is shared: its speed drifts by tens
// of percent within seconds and minutes, and every op drifts with it. So a
// run also times a fixed reference kernel every calibrateEvery, between
// ops, and scales each op of a CPU-bound workload by the kernel time measured
// last before it: the op then reads as it would at the speed at which the
// kernel takes refNominal. The kernel is the benchmark's own code, not the
// repository's, so a change to the program moves the ops but never the
// yardstick. It runs in a helper process (this binary, started with
// refKernelEnv set), so its garbage never reaches the benchmark's heap, its
// collector or its resident set. Raw timings stay in the run's detail line.

// refNominal is the reference kernel's time on the reference host (2-vCPU
// KVM guest, Intel Xeon) when the host is quiet.
const refNominal = 5 * time.Millisecond

// calibrateEvery spaces reference measurements through the timed phase.
const calibrateEvery = 500 * time.Millisecond

// refKernelEnv, set to 1, makes this binary serve kernel measurements on
// its standard input and output instead of running a benchmark.
const refKernelEnv = "CACHE8T_BENCH_REFERENCE_KERNEL"

// refSink keeps the kernel's work observable.
var refSink atomic.Uint64

// refKernel runs the reference workload once and returns its duration in
// ms. It has the simulator's shape: it allocates 64-byte chunks into a map
// keyed by address, as the shadow memory does, and reads and writes a
// 64 KiB table data-dependently, as the cache model's sets are.
func refKernel() float64 {
	start := time.Now()
	chunks := make(map[uint64]*[64]byte, 1<<12)
	table := make([]uint64, 8192)
	x := uint64(88172645463325252)
	var sink uint64
	for i := 0; i < 60_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := (x % (1 << 15)) << 6
		c := chunks[key]
		if c == nil {
			c = new([64]byte)
			chunks[key] = c
		}
		c[x%64]++
		if t := table[x%uint64(len(table))]; t&1 == 1 {
			sink += t
		} else {
			sink ^= uint64(c[0])
		}
		table[(x>>20)%uint64(len(table))] = x
	}
	refSink.Add(sink)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// kernelOnAllCPUs runs the kernel on gomaxprocs goroutines at once and
// returns the mean time: the host's vCPUs need not run at the same speed,
// both slow down when both are busy, and the concurrent workloads use both.
func kernelOnAllCPUs() float64 {
	times := make([]float64, gomaxprocs)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = refKernel()
		}(i)
	}
	wg.Wait()
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum / float64(len(times))
}

// serveKernel answers every line read from in with one kernel measurement,
// in ms, on out. It is the helper process's main loop.
func serveKernel(in io.Reader, out io.Writer) error {
	runtime.GOMAXPROCS(gomaxprocs)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if _, err := fmt.Fprintf(out, "%g\n", kernelOnAllCPUs()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// speedFactor converts a timing taken when the kernel took refMS to the
// reference speed.
func speedFactor(refMS float64) float64 {
	return float64(refNominal.Nanoseconds()) / 1e6 / refMS
}

// calibrator times the reference kernel every calibrateEvery, between ops:
// ops run under the read lock, and a measurement takes the write lock, so
// it waits for in-flight ops and runs while the benchmark is idle.
type calibrator struct {
	quiet sync.RWMutex
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader

	mu     sync.Mutex
	last   time.Time
	latest float64   // ms
	times  []float64 // measurements taken in the timed phase, ms
	err    error
}

// newCalibrator starts the helper process.
func newCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{cmd: exec.Command(exe)}
	c.cmd.Env = append(os.Environ(), refKernelEnv+"=1")
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(out)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	return c, nil
}

// measure asks the helper for one measurement. The caller makes sure no op
// is running.
func (c *calibrator) measure() (float64, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// close stops the helper and waits for it to exit.
func (c *calibrator) close() error {
	c.in.Close()
	return c.cmd.Wait()
}

// begin marks the start of an op and returns the kernel time measured last
// before it, measuring first when a measurement is due.
func (c *calibrator) begin() float64 {
	if c.due() {
		c.quiet.Lock()
		c.mu.Lock()
		if time.Since(c.last) >= calibrateEvery {
			ms, err := c.measure()
			if err != nil && c.err == nil {
				c.err = err
			}
			if err == nil {
				c.latest = ms
				c.times = append(c.times, ms)
			}
			c.last = time.Now()
		}
		c.mu.Unlock()
		c.quiet.Unlock()
	}
	c.quiet.RLock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest
}

// end marks the end of an op.
func (c *calibrator) end() { c.quiet.RUnlock() }

func (c *calibrator) due() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Since(c.last) >= calibrateEvery
}

// measurements returns the kernel times taken in the timed phase, in ms,
// and the first error the helper returned.
func (c *calibrator) measurements() ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.times...), c.err
}
