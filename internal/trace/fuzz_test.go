package trace

import (
	"bytes"
	"sync"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the trace decoder: it must never
// panic, and whatever decodes must re-encode to something that decodes to
// the same accesses (decode/encode/decode fixpoint).
func FuzzReader(f *testing.F) {
	var seed bytes.Buffer
	if _, err := WriteAll(&seed, FromSlice(sampleAccesses(16)), 0); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("C8TT\x01"))
	f.Add([]byte("C8TT\x01\x00\x00\x00\x00"))
	f.Add([]byte{0x1f, 0x8b})
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return // malformed input is fine; panics are not
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, FromSlice(first), 0); err != nil {
			// Decoded accesses always carry valid sizes; re-encode cannot
			// fail.
			t.Fatalf("re-encode failed: %v", err)
		}
		second, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(first) != len(second) {
			t.Fatalf("fixpoint length %d != %d", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("fixpoint mismatch at %d", i)
			}
		}
	})
}

// FuzzBatcher feeds arbitrary bytes through the batched decode path: it must
// never panic, and for every batch size it must agree access-for-access (and
// error-for-error) with the one-shot ReadAll over the same bytes — the
// differential guarantee the streaming pipeline rests on.
func FuzzBatcher(f *testing.F) {
	var seed bytes.Buffer
	if _, err := WriteAll(&seed, FromSlice(sampleAccesses(16)), 0); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("C8TT\x01"), uint8(1))
	f.Add([]byte("C8TT\x01\x00\x00\x00\x00"), uint8(255))
	f.Add(seed.Bytes()[:seed.Len()-2], uint8(7))
	// Past the 64 KiB read buffer, and an overflowing varint met by the
	// buffered decode path: the edges where ReadBatch hands back to Next.
	long, _ := edgeTrace(f, 5000)
	f.Add(long, uint8(63))
	f.Add(overflowTrace(f, 1000), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, sizeByte uint8) {
		oneShot, oneErr := ReadAll(bytes.NewReader(data))

		size := int(sizeByte%64) + 1
		b := NewBatcher(NewReader(bytes.NewReader(data)), size)
		var streamed []Access
		for {
			batch, ok := b.Next()
			if !ok {
				break
			}
			if len(batch) == 0 || len(batch) > size {
				t.Fatalf("batch length %d outside (0, %d]", len(batch), size)
			}
			streamed = append(streamed, batch...)
		}
		batchErr := b.Err()

		if (oneErr == nil) != (batchErr == nil) {
			t.Fatalf("error divergence: one-shot %v vs batched %v", oneErr, batchErr)
		}
		if oneErr != nil && oneErr.Error() != batchErr.Error() {
			t.Fatalf("error mismatch: one-shot %q vs batched %q", oneErr, batchErr)
		}
		if len(streamed) != len(oneShot) {
			t.Fatalf("decoded %d accesses batched vs %d one-shot", len(streamed), len(oneShot))
		}
		for i := range oneShot {
			if streamed[i] != oneShot[i] {
				t.Fatalf("access %d: batched %v vs one-shot %v", i, streamed[i], oneShot[i])
			}
		}
		if b.Count() != uint64(len(streamed)) {
			t.Fatalf("Count %d != %d accesses yielded", b.Count(), len(streamed))
		}
	})
}

// FuzzFanout deals a stream through either distribution under an arbitrary
// shape — stream length, batch size, feed count, ring depth and source kind
// — and a per-feed early-stop schedule: stops[i] = k > 0 stops feed i in
// place of its k-th Next. Every feed that drains must see exactly its
// subsequence, in stream order, and a feed that stops a prefix of it; Err
// must be nil, and Stop must return, with the decoder joined, once every
// feed has stopped.
func FuzzFanout(f *testing.F) {
	f.Add(uint16(1000), uint8(64), uint8(3), uint8(2), uint8(0), []byte{0, 2, 0})
	f.Add(uint16(1000), uint8(64), uint8(3), uint8(2), uint8(1), []byte{0, 2, 0})
	f.Add(uint16(0), uint8(1), uint8(1), uint8(1), uint8(2), []byte{})
	f.Add(uint16(5000), uint8(7), uint8(8), uint8(1), uint8(5), []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint16(3000), uint8(0), uint8(2), uint8(0), uint8(3), []byte{3, 0})
	f.Fuzz(func(t *testing.T, n uint16, sizeByte, feedsByte, slabsByte, mode uint8, stops []byte) {
		want := broadcastAccesses(int(n % 8192))
		size, feeds, slabs := int(sizeByte%128)+1, int(feedsByte%8)+1, int(slabsByte%4)+1
		d := []distribution{broadcasting, routing}[mode&1]
		var src Stream = FromSlice(want)
		switch (mode >> 1) % 3 {
		case 1:
			src = NewLimit(src, uint64(len(want)))
		case 2:
			src = NewReader(bytes.NewReader(encoded(t, want)))
		}
		b := d.open(src, size, feeds, slabs)
		got := make([][]Access, feeds)
		drained := make([]bool, feeds)
		var wg sync.WaitGroup
		for i := range feeds {
			stop := 0
			if i < len(stops) {
				stop = int(stops[i] % 8)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				feed := b.Sub(i)
				for k := 1; ; k++ {
					if k == stop {
						feed.Stop()
						return
					}
					batch, ok := feed.Next()
					if !ok {
						drained[i] = true
						return
					}
					got[i] = append(got[i], batch...)
				}
			}()
		}
		wg.Wait()
		b.Stop()
		select {
		case <-b.done:
		default:
			t.Fatal("Stop returned before the decoder exited")
		}
		if err := b.Err(); err != nil {
			t.Fatalf("Err() = %v, want nil", err)
		}
		for i := range feeds {
			mine := d.dealt(want, i, feeds)
			if len(got[i]) > len(mine) || drained[i] && len(got[i]) != len(mine) {
				t.Fatalf("feed %d (drained %v) saw %d accesses of its %d", i, drained[i], len(got[i]), len(mine))
			}
			for j := range got[i] {
				if got[i][j] != mine[j] {
					t.Fatalf("feed %d: access %d = %v, want %v", i, j, got[i][j], mine[j])
				}
			}
		}
	})
}
