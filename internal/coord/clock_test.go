package coord

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock: Timer registers a waiter that
// fires when Advance moves the clock past its due time, and its stop drops
// the waiter. Tests drive every timing decision in the dispatch loop —
// attempt deadlines, poll ticks, backoff waits, breaker cooldowns — without
// one real sleep.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	// An arbitrary fixed epoch: nothing in the coordinator depends on wall
	// time, only on durations.
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Timer(d time.Duration) (<-chan time.Time, func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch, func() bool { return false }
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch, func() bool { return c.stop(ch) }
}

// stop drops the waiter on ch and reports whether it was still pending.
func (c *fakeClock) stop(ch chan time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.waiters {
		if w.ch == ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// pending returns how long from now each waiter that has neither fired
// nor been stopped is due.
func (c *fakeClock) pending() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	due := make([]time.Duration, len(c.waiters))
	for i, w := range c.waiters {
		due[i] = w.at.Sub(c.now)
	}
	return due
}

// Advance moves the clock and fires every waiter that has come due. Waiter
// channels are buffered, so firing an abandoned waiter never blocks.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
}

func TestFakeClockFiresInOrder(t *testing.T) {
	clk := newFakeClock()
	a, _ := clk.Timer(10 * time.Millisecond)
	b, _ := clk.Timer(30 * time.Millisecond)
	clk.Advance(20 * time.Millisecond)
	select {
	case <-a:
	default:
		t.Fatal("10ms waiter did not fire after 20ms advance")
	}
	select {
	case <-b:
		t.Fatal("30ms waiter fired after only 20ms")
	default:
	}
	clk.Advance(20 * time.Millisecond)
	select {
	case <-b:
	default:
		t.Fatal("30ms waiter did not fire after 40ms total")
	}
	if got := clk.Now().Sub(time.Unix(1_700_000_000, 0)); got != 40*time.Millisecond {
		t.Fatalf("clock advanced %v, want 40ms", got)
	}
}
