package coord

import "time"

// Clock abstracts time for the dispatch loop — attempt timeouts, poll
// ticks, backoff waits, breaker cooldowns — so the fault-injection tests
// drive every one of them through a fake clock with no real sleeps,
// matching the existing lifecycle-test style.
type Clock interface {
	Now() time.Time
	// Timer returns a channel that fires once d has elapsed on this clock,
	// and a stop function that releases the timer if it has not fired.
	// Every caller stops its timer when it stops waiting: an unstopped
	// timer stays live until it fires, which for an attempt deadline is
	// minutes after the exchange it bounded.
	Timer(d time.Duration) (c <-chan time.Time, stop func() bool)
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Timer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}
