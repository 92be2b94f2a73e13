package coord

import (
	"sync"
	"time"
)

// breaker is a per-worker circuit breaker. Threshold consecutive failures
// open it for Cooldown — while open, the picker skips the worker, so a dead
// box stops absorbing dispatches (and their timeouts) almost immediately.
// After the cooldown one probe dispatch is let through (half-open): success
// closes the breaker, failure re-opens it for another cooldown. Dispatch
// outcomes are its only input.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int // consecutive failures
	openUntil time.Time
	probing   bool   // a half-open probe is in flight
	opens     uint64 // cumulative open transitions, for metrics
}

// allow reports whether a dispatch may be sent now. In half-open state only
// one probe is admitted at a time.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true // closed
	}
	if now.Before(b.openUntil) {
		return false // open
	}
	if b.probing {
		return false // half-open, probe already out
	}
	b.probing = true
	return true
}

// success closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// failure records one failed dispatch, reporting whether this transition
// opened the breaker (closed/half-open → open).
func (b *breaker) failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasOpen := b.fails >= b.threshold && now.Before(b.openUntil)
	b.probing = false
	b.fails++
	if b.fails >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
		if !wasOpen {
			b.opens++
			return true
		}
	}
	return false
}

// state names the breaker's position for the workers listing.
func (b *breaker) state(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.fails < b.threshold:
		return "closed"
	case now.Before(b.openUntil):
		return "open"
	default:
		return "half-open"
	}
}

// openCount returns the cumulative open transitions.
func (b *breaker) openCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
