// Package lifecycletest is the conformance suite for every entry kind that
// embeds server.Lifecycle: a job server's jobs and a coordinator's sweeps
// each run it from a one-line test.
package lifecycletest

import (
	"context"
	"sync"
	"testing"
	"time"

	"cache8t/internal/server"
)

// epoch is the fixed submit time every check starts from.
var epoch = time.Unix(1_700_000_000, 0)

// Suite checks one entry kind's lifecycle. newEntry builds a fresh queued
// entry submitted at now, whose context descends from parent, and returns
// its lifecycle.
func Suite(t *testing.T, newEntry func(parent context.Context, now time.Time) *server.Lifecycle) {
	fresh := func() *server.Lifecycle { return newEntry(context.Background(), epoch) }
	nop := func() {}

	t.Run("Transitions", func(t *testing.T) {
		l := fresh()
		requireState(t, l, server.StateQueued)
		if !l.Start(epoch) {
			t.Fatal("Start refused a queued entry")
		}
		requireState(t, l, server.StateRunning)
		if l.Start(epoch) {
			t.Fatal("Start accepted a running entry")
		}
		if !l.Finish(epoch, server.StateSucceeded, "", []byte("result"), nop) {
			t.Fatal("Finish refused a running entry")
		}
		requireState(t, l, server.StateSucceeded)
		if string(l.Result()) != "result" || l.Context().Err() == nil {
			t.Fatalf("finished entry: result %q, context err %v; want the result and a released context", l.Result(), l.Context().Err())
		}
		if l.Finish(epoch, server.StateFailed, "late", nil, nop) || l.Start(epoch) {
			t.Fatal("a terminal entry accepted another transition")
		}
		requireState(t, l, server.StateSucceeded)
		if s := l.Snapshot(epoch); s.Error != "" {
			t.Fatalf("terminal state not sticky: error %q", s.Error)
		}
	})

	t.Run("CancelWhileQueued", func(t *testing.T) {
		l := fresh()
		if !l.Finish(epoch, server.StateCancelled, "cancelled before start", nil, nop) {
			t.Fatal("Finish refused a queued entry")
		}
		if l.Start(epoch) {
			t.Fatal("Start accepted an entry cancelled while queued")
		}
		requireState(t, l, server.StateCancelled)
		if s := l.Snapshot(epoch); s.Error != "cancelled before start" || s.QueueMS != 0 || s.RunMS != 0 {
			t.Fatalf("cancelled entry: %+v", s)
		}
	})

	t.Run("OneClaimWins", func(t *testing.T) {
		const n = 16
		l := fresh()
		l.Start(epoch)
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			wins    int
			effects int
		)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				state := server.StateFailed
				if i%2 == 0 {
					state = server.StateCancelled
				}
				won := l.Finish(epoch, state, "", nil, func() {
					mu.Lock()
					effects++
					mu.Unlock()
				})
				if won {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}(i)
		}
		wg.Wait()
		if wins != 1 || effects != 1 {
			t.Fatalf("%d concurrent claims: %d won and %d ran effects, want 1 and 1", n, wins, effects)
		}
		if !l.State().Terminal() {
			t.Fatalf("state %s after the winning claim", l.State())
		}
	})

	t.Run("ClaimedReadsPrevious", func(t *testing.T) {
		l := fresh()
		l.Start(epoch)
		ran := false
		l.Finish(epoch, server.StateSucceeded, "", []byte("result"), func() {
			ran = true
			if st := l.State(); st != server.StateRunning {
				t.Errorf("claimed, unpublished entry reads %s, want running", st)
			}
			if l.Result() != nil || l.Context().Err() != nil {
				t.Error("claimed, unpublished entry already holds its result or a released context")
			}
			if l.Start(epoch) {
				t.Error("Start accepted a claimed entry")
			}
		})
		if !ran {
			t.Fatal("Finish did not run its effects")
		}
		requireState(t, l, server.StateSucceeded)
	})

	t.Run("Recover", func(t *testing.T) {
		l := fresh()
		l.Recover(server.StateFailed, "boom")
		requireState(t, l, server.StateFailed)
		if s := l.Snapshot(epoch); !s.Recovered || s.Error != "boom" || !l.IsRecovered() {
			t.Fatalf("recovered terminal entry: %+v", s)
		}
		if l.Context().Err() == nil {
			t.Fatal("recovered terminal entry holds a live context")
		}
		if l.Start(epoch) || l.Finish(epoch, server.StateSucceeded, "", nil, nop) {
			t.Fatal("a recovered terminal entry accepted a transition")
		}

		l = fresh()
		l.Recover(server.StateRunning, "")
		requireState(t, l, server.StateQueued)
		if !l.IsRecovered() || !l.Start(epoch) {
			t.Fatal("a recovered unfinished entry must be queued, flagged recovered, and start again")
		}
	})

	t.Run("Timings", func(t *testing.T) {
		l := fresh()
		if s := l.Snapshot(epoch.Add(time.Hour)); s.SubmittedUnixMS != epoch.UnixMilli() || s.QueueMS != 0 || s.RunMS != 0 {
			t.Fatalf("queued entry: %+v", s)
		}
		l.Start(epoch.Add(5 * time.Millisecond))
		if s := l.Snapshot(epoch.Add(7 * time.Millisecond)); s.QueueMS != 5 || s.RunMS != 2 {
			t.Fatalf("running entry: queue %v ms, run %v ms; want 5 and 2", s.QueueMS, s.RunMS)
		}
		l.Finish(epoch.Add(12*time.Millisecond), server.StateSucceeded, "", nil, nop)
		if s := l.Snapshot(epoch.Add(time.Hour)); s.QueueMS != 5 || s.RunMS != 7 {
			t.Fatalf("finished entry: queue %v ms, run %v ms; want 5 and 7", s.QueueMS, s.RunMS)
		}
	})
}

func requireState(t *testing.T, l *server.Lifecycle, want server.State) {
	t.Helper()
	if got := l.State(); got != want {
		t.Fatalf("state %s, want %s", got, want)
	}
}
