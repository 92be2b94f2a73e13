package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// TestCountingStreamBatches drains a trace one stride and a bit long through
// a job's progress counter: the counter must pass the Reader's batch decode
// through, count every access once, and wake watchers exactly once, when
// the count crosses the stride.
func TestCountingStreamBatches(t *testing.T) {
	const n = progressNotifyStride + 4000
	g, err := workload.Stream("bwaves", 1)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if _, err := trace.WriteAll(&enc, g, n); err != nil {
		t.Fatal(err)
	}
	j := newJob(context.Background(), "job", JobSpec{}, "bwaves", "", time.Now())
	var s trace.Stream = &countingStream{inner: trace.NewReader(&enc), job: j}
	if _, ok := s.(trace.BatchSource); !ok {
		t.Fatal("countingStream does not implement trace.BatchSource")
	}
	woken := j.watch()
	// 4000 does not divide the stride, so the count crosses it mid-batch.
	b := trace.NewBatcher(s, 4000)
	got := 0
	for {
		batch, ok := b.Next()
		if !ok {
			break
		}
		got += len(batch)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n || j.accesses.Load() != n {
		t.Fatalf("decoded %d accesses and counted %d, want %d", got, j.accesses.Load(), n)
	}
	select {
	case <-woken:
	default:
		t.Fatal("no progress wake-up after a full stride")
	}
	select {
	case <-j.watch():
		t.Fatal("more than one progress wake-up for one stride")
	default:
	}
}
