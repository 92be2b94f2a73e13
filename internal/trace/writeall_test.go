package trace_test

import (
	"bytes"
	"testing"

	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// TestWriteAllMatchesPerAccessLoop holds the batched encode loop to a
// per-access Writer.Write loop over a generated trace: 100k accesses, so
// max cuts the last batch short, plain and gzip-framed, must encode to the
// same bytes, and neither loop may draw the generator past max.
func TestWriteAllMatchesPerAccessLoop(t *testing.T) {
	const limit = 100_000 // 24 full batches of 4096, then 1696 accesses
	gen := func() *workload.Generator {
		g, err := workload.Stream("bwaves", 7)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, compress := range []bool{false, true} {
		batched := gen()
		var got bytes.Buffer
		var n uint64
		var err error
		if compress {
			n, err = trace.WriteAllAuto(&got, batched, limit, true)
		} else {
			n, err = trace.WriteAll(&got, batched, limit)
		}
		if err != nil || n != limit {
			t.Fatalf("compress=%v: wrote %d accesses (err %v), want %d", compress, n, err, limit)
		}

		ref := gen()
		var want bytes.Buffer
		tw := trace.NewWriter(&want)
		finish := tw.Flush
		if compress {
			gw := trace.NewGzWriter(&want)
			tw, finish = gw.Writer, gw.Close
		}
		for i := 0; i < limit; i++ {
			a, _ := ref.Next()
			if err := tw.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := finish(); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("compress=%v: batched loop wrote %d bytes, per-access loop %d, and they differ", compress, got.Len(), want.Len())
		}
		a, _ := batched.Next()
		b, _ := ref.Next()
		if a != b {
			t.Fatalf("compress=%v: the batched loop drew the generator past max", compress)
		}
	}
}
