package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every fan-out behaviour is written once, as a function of the
// distribution, and runs against both: each pair of tests below is one
// behaviour, broadcast then route.

func TestBroadcastFanOutSlice(t *testing.T)                 { sliceCase.run(t, broadcasting) }
func TestRouteBroadcastPartitionSlice(t *testing.T)         { sliceCase.run(t, routing) }
func TestBroadcastFanOutBatchSource(t *testing.T)           { readerCase.run(t, broadcasting) }
func TestRouteBroadcastPartitionBatchSource(t *testing.T)   { readerCase.run(t, routing) }
func TestBroadcastFanOutGenericStream(t *testing.T)         { genericCase.run(t, broadcasting) }
func TestRouteBroadcastPartitionGenericStream(t *testing.T) { genericCase.run(t, routing) }
func TestBroadcastSingleSub(t *testing.T)                   { singleCase.run(t, broadcasting) }
func TestBroadcastEmptySource(t *testing.T)                 { emptyCase.run(t, broadcasting) }
func TestRouteBroadcastEmptySource(t *testing.T)            { emptyCase.run(t, routing) }
func TestBroadcastDecodeError(t *testing.T)                 { testDecodeError(t, broadcasting) }
func TestRouteBroadcastDecodeError(t *testing.T)            { testDecodeError(t, routing) }
func TestBroadcastEarlyStopOneSub(t *testing.T)             { testEarlyStopOne(t, broadcasting) }
func TestRouteBroadcastEarlyStopOneShard(t *testing.T)      { testEarlyStopOne(t, routing) }
func TestBroadcastAllStopEarly(t *testing.T)                { testAllStopEarly(t, broadcasting) }
func TestRouteBroadcastAllStopEarly(t *testing.T)           { testAllStopEarly(t, routing) }
func TestBroadcastSlowSubscriberBackpressure(t *testing.T)  { testReadAheadBound(t, broadcasting) }
func TestRouteBroadcastBackpressure(t *testing.T)           { testReadAheadBound(t, routing) }
func TestBroadcastSteadyStateNoAlloc(t *testing.T)          { testSteadyStateNoAlloc(t, broadcasting) }
func TestRouteBroadcastSteadyStateNoAlloc(t *testing.T)     { testSteadyStateNoAlloc(t, routing) }

// distribution is one way a Fanout deals a stream out to its feeds.
type distribution struct {
	name string
	open func(src Stream, size, feeds, slabs int) *Fanout
	// owns reports whether feed i of n receives a.
	owns func(a Access, i, n int) bool
}

var (
	broadcasting = distribution{
		name: "broadcast",
		open: NewBroadcast,
		owns: func(Access, int, int) bool { return true },
	}
	routing = distribution{
		name: "route",
		open: func(src Stream, size, feeds, slabs int) *Fanout {
			return NewRouteBroadcast(src, modRoute(feeds), size, feeds, slabs)
		},
		owns: func(a Access, i, n int) bool { return modShard(a, n) == i },
	}
)

// modShard is modRoute's choice for one access.
func modShard(a Access, n int) int { return int((a.Addr >> 3) % uint64(n)) }

// modRoute routes by address modulo feeds — every access to exactly one
// feed, deterministically.
func modRoute(feeds int) RouteFunc {
	return func(batch []Access, dst []int32) {
		for i := range batch {
			dst[i] = int32(modShard(batch[i], feeds))
		}
	}
}

// dealt returns the subsequence of stream that feed i of n receives.
func (d distribution) dealt(stream []Access, i, n int) []Access {
	var out []Access
	for _, a := range stream {
		if d.owns(a, i, n) {
			out = append(out, a)
		}
	}
	return out
}

// broadcastAccesses is a stream whose access i has address 8*i.
func broadcastAccesses(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		k := Read
		if i%3 == 0 {
			k = Write
		}
		out[i] = Access{Addr: uint64(i) * 8, Data: uint64(i), Gap: uint32(i % 7), Size: 8, Kind: k}
	}
	return out
}

// encoded returns accs as a binary trace.
func encoded(t testing.TB, accs []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(accs), 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainFeed collects every access a feed delivers, copying out of the
// recycled slabs.
func drainFeed(f *Feed) []Access {
	var got []Access
	for {
		batch, ok := f.Next()
		if !ok {
			return got
		}
		got = append(got, batch...)
	}
}

// drainAll drains every feed concurrently and returns what each saw.
func drainAll(b *Fanout, feeds int) [][]Access {
	got := make([][]Access, feeds)
	var wg sync.WaitGroup
	for i := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = drainFeed(b.Sub(i))
		}()
	}
	wg.Wait()
	return got
}

// wantDealt checks that feed i saw exactly its subsequence of stream, in
// stream order, for every i.
func wantDealt(t *testing.T, d distribution, got [][]Access, stream []Access) {
	t.Helper()
	for i := range got {
		want := d.dealt(stream, i, len(got))
		if len(got[i]) != len(want) {
			t.Fatalf("feed %d: got %d accesses, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("feed %d: access %d = %v, want %v", i, j, got[i][j], want[j])
			}
		}
	}
}

// drainCase is one full drain of a stream through a fan-out.
type drainCase struct {
	n, size, feeds, slabs int
	// src serves the stream; nil serves it from a slice.
	src func(t *testing.T, accs []Access) Stream
}

var (
	sliceCase  = drainCase{n: 10_000, size: 256, feeds: 4}
	readerCase = drainCase{n: 5_000, size: 128, feeds: 3, slabs: 2, src: func(t *testing.T, accs []Access) Stream {
		return NewReader(bytes.NewReader(encoded(t, accs)))
	}}
	// Limit wraps the slice in a plain Stream, forcing the per-access Next
	// fill path (no zero-copy view).
	genericCase = drainCase{n: 3_000, size: 100, feeds: 2, src: func(_ *testing.T, accs []Access) Stream {
		return NewLimit(FromSlice(accs), uint64(len(accs)))
	}}
	singleCase = drainCase{n: 1_000, feeds: 1}
	emptyCase  = drainCase{size: 64, feeds: 2}
)

func (c drainCase) run(t *testing.T, d distribution) {
	want := broadcastAccesses(c.n)
	var src Stream = FromSlice(want)
	if c.src != nil {
		src = c.src(t, want)
	}
	b := d.open(src, c.size, c.feeds, c.slabs)
	wantDealt(t, d, drainAll(b, c.feeds), want)
	b.Stop()
	if err := b.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

func testDecodeError(t *testing.T, d distribution) {
	want := broadcastAccesses(2_000)
	full := encoded(t, want)
	const feeds = 3
	b := d.open(NewReader(bytes.NewReader(full[:len(full)-1])), 64, feeds, 0)
	got := drainAll(b, feeds)
	if err := b.Err(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Err() = %v, want ErrUnexpectedEOF", err)
	}
	// Every access decoded before the error reached each of its feeds: the
	// feeds saw exactly their share of one stream prefix, the one ending at
	// the last access any feed saw (access i has address 8*i).
	decoded := 0
	for _, g := range got {
		if len(g) > 0 {
			decoded = max(decoded, int(g[len(g)-1].Addr/8)+1)
		}
	}
	if decoded == 0 || decoded == len(want) {
		t.Fatalf("feeds saw a %d-access prefix of the %d-access trace, want a proper one", decoded, len(want))
	}
	wantDealt(t, d, got, want[:decoded])
}

func testEarlyStopOne(t *testing.T, d distribution) {
	// Feed 0 abandons after one batch while still holding it; Stop must
	// recycle that slab, because the other feeds need every slab of a
	// two-deep ring to finish a stream far longer than the ring.
	want := broadcastAccesses(20_000)
	const feeds, slabs = 3, 2
	b := d.open(FromSlice(want), 128, feeds, slabs)
	got := make([][]Access, feeds)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f := b.Sub(0)
		if batch, ok := f.Next(); !ok || len(batch) == 0 {
			t.Error("feed 0: no first batch")
		}
		f.Stop()
		f.Stop() // idempotent
	}()
	for i := 1; i < feeds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = drainFeed(b.Sub(i))
		}()
	}
	wg.Wait()
	b.Stop()
	got[0] = d.dealt(want, 0, feeds) // feed 0 is not under test
	wantDealt(t, d, got, want)
}

func testAllStopEarly(t *testing.T, d distribution) {
	// Every feed stops after its first batch; the decoder must exit without
	// draining the rest of the stream, and Stop must still be safe to call
	// on the whole Fanout afterwards.
	src := FromSlice(broadcastAccesses(1 << 20))
	const feeds = 2
	b := d.open(src, 64, feeds, 0)
	var wg sync.WaitGroup
	for i := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := b.Sub(i)
			f.Next()
			f.Stop()
		}()
	}
	wg.Wait()
	b.Stop()
	if src.pos == len(src.accesses) {
		t.Error("decoder drained the whole stream despite every feed stopping")
	}
}

func testReadAheadBound(t *testing.T, d distribution) {
	// The ring bounds decoder read-ahead: the decoder is at most the ring
	// depth ahead of the slowest feed, plus the batch it is decoding. Feed
	// 1 drains as fast as it can, which must not loosen the bound on slow
	// feed 0. The source counts what it has produced of feed 0's share, and
	// the invariant below holds at every instant, so sampling it cannot
	// flake.
	const (
		size  = 64
		slabs = 2
		total = 100_000
		feeds = 2
	)
	var produced atomic.Int64
	var n int
	src := Func(func() (Access, bool) {
		if n == total {
			return Access{}, false
		}
		a := Access{Addr: uint64(n) * 8, Size: 8}
		n++
		if d.owns(a, 0, feeds) {
			produced.Add(1)
		}
		return a, true
	})
	b := d.open(src, size, feeds, slabs)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drainFeed(b.Sub(1))
	}()
	f := b.Sub(0)
	consumed := 0
	const bound = (slabs + 1) * size
	for range 20 {
		batch, ok := f.Next()
		if !ok {
			t.Fatal("stream ran dry during backpressure check")
		}
		consumed += len(batch)
		time.Sleep(time.Millisecond) // let the decoder run as far as it can
		if p := int(produced.Load()); p > consumed+bound {
			t.Fatalf("decoder %d accesses ahead of the slow feed (produced %d, consumed %d), want <= %d",
				p-consumed, p, consumed, bound)
		}
	}
	f.Stop()
	wg.Wait()
	b.Stop()
}

func testSteadyStateNoAlloc(t *testing.T, d distribution) {
	// Slabs circulate decoder → feed → free list and the route pass reuses
	// its buffers: once the rings are primed, consuming the rest of the
	// stream allocates nothing on any goroutine (AllocsPerRun reads global
	// memstats, so the decoder's allocations would show up here too). The
	// generic source makes a broadcast decode into its own slabs.
	want := broadcastAccesses(512 * 200)
	b := d.open(NewLimit(FromSlice(want), uint64(len(want))), 512, 2, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drainFeed(b.Sub(1))
	}()
	f := b.Sub(0)
	if _, ok := f.Next(); !ok {
		t.Fatal("no first batch")
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, ok := f.Next(); !ok {
			t.Fatal("stream ran dry mid-measurement")
		}
	}); n > 0 {
		t.Errorf("steady-state Next allocates %.1f times per batch, want 0", n)
	}
	f.Stop()
	wg.Wait()
	b.Stop()
}

func TestBroadcastSliceZeroCopy(t *testing.T) {
	want := broadcastAccesses(100)
	b := NewBroadcast(FromSlice(want), 64, 1, 0)
	batch, ok := b.Sub(0).Next()
	if !ok || len(batch) == 0 {
		t.Fatal("no first batch")
	}
	if &batch[0] != &want[0] {
		t.Error("slice-source batch is a copy; want a zero-copy view of the backing array")
	}
	b.Stop()
}

func TestBroadcastStopMidBatchRecycles(t *testing.T) {
	// A feed that stops while it holds a batch must hand that slab back
	// before the slabs still queued on its ring: the decoder takes a slab
	// back from every feed's free list in publish order, so an out-of-order
	// release would let it overwrite a slab another feed is still reading.
	const size, slabs = 4, 2
	want := broadcastAccesses(size * 50)
	b := NewBroadcast(NewLimit(FromSlice(want), uint64(len(want))), size, 2, slabs)
	keep, quit := b.Sub(0), b.Sub(1)
	keep.Next()            // batch 1, slab A: released by the next Next
	held, _ := keep.Next() // batch 2, slab B
	quit.Next()            // batch 1, slab A; slab B is queued on its ring
	quit.Stop()            // A is free on both feeds again, B only on quit
	// Wait for the decoder to publish batch 3.
	for len(keep.ring) == 0 {
		runtime.Gosched()
	}
	wantDealt(t, broadcasting, [][]Access{held}, want[size:2*size])
	wantDealt(t, broadcasting, [][]Access{drainFeed(keep)}, want[2*size:])
	b.Stop()
}

func TestRouteBroadcastShardOwnsNothing(t *testing.T) {
	// Shard 2 of 3 owns none of the address space: its feed must close
	// promptly with zero deliveries while the others split the stream.
	want := broadcastAccesses(4_000)
	b := NewRouteBroadcast(FromSlice(want), modRoute(2), 128, 3, 0)
	got := drainAll(b, 3)
	b.Stop()
	if len(got[2]) != 0 {
		t.Fatalf("unrouted shard saw %d accesses, want 0", len(got[2]))
	}
	wantDealt(t, routing, got[:2], want)
}

func TestRouteBroadcastRouteErrorAborts(t *testing.T) {
	want := broadcastAccesses(1_000)
	const refuseAt = 437
	route := func(batch []Access, dst []int32) {
		for i := range batch {
			if batch[i].Addr == want[refuseAt].Addr {
				dst[i] = -1
				continue
			}
			dst[i] = 0
		}
	}
	b := NewRouteBroadcast(FromSlice(want), route, 64, 2, 0)
	got := drainAll(b, 2)
	var re *RouteError
	if err := b.Err(); !errors.As(err, &re) {
		t.Fatalf("Err() = %v, want *RouteError", err)
	}
	if re.Access != want[refuseAt] {
		t.Fatalf("RouteError.Access = %v, want %v", re.Access, want[refuseAt])
	}
	// Everything routed before the refusal is still delivered (flushed), and
	// nothing at or past it.
	if len(got[0]) != refuseAt {
		t.Fatalf("shard 0 saw %d accesses, want the %d before the refusal", len(got[0]), refuseAt)
	}
}

func TestRouteBroadcastAdaptiveSlabSizing(t *testing.T) {
	const size, shards = 1024, 8
	want := broadcastAccesses(size * 40)
	evenSplit := adaptSlabCap(2*size/shards, size)

	// Balanced mod routing: observed ownership stays under the even-split
	// headroom, so every delivered slab keeps the initial capacity — an
	// 8-shard fan-out holds size/4 per slab instead of a full batch each.
	b := NewRouteBroadcast(FromSlice(want), modRoute(shards), size, shards, 0)
	caps := make([]map[int]bool, shards)
	var wg sync.WaitGroup
	for i := range shards {
		caps[i] = map[int]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := b.Shard(i)
			for {
				batch, ok := f.Next()
				if !ok {
					return
				}
				caps[i][cap(batch)] = true
			}
		}()
	}
	wg.Wait()
	b.Stop()
	for i := range shards {
		for c := range caps[i] {
			if c != evenSplit {
				t.Fatalf("balanced shard %d delivered a %d-cap slab, want the even-split %d", i, c, evenSplit)
			}
		}
		if got := b.Shard(i).slabCap; got != evenSplit {
			t.Fatalf("balanced shard %d target grew to %d, want %d", i, got, evenSplit)
		}
	}

	// Fully skewed routing: the owning shard's slabs must grow to the batch
	// length while the starved shards keep the initial capacity.
	skew := func(batch []Access, dst []int32) {
		for i := range batch {
			dst[i] = 0
		}
	}
	b2 := NewRouteBroadcast(FromSlice(want), skew, size, shards, 0)
	got := drainAll(b2, shards)
	b2.Stop()
	if len(got[0]) != len(want) {
		t.Fatalf("skewed shard 0 saw %d accesses, want %d", len(got[0]), len(want))
	}
	if got := b2.Shard(0).slabCap; got != size {
		t.Fatalf("skewed shard 0 target = %d, want the batch length %d", got, size)
	}
	for i := 1; i < shards; i++ {
		if got := b2.Shard(i).slabCap; got != evenSplit {
			t.Fatalf("starved shard %d target = %d, want the initial %d", i, got, evenSplit)
		}
	}
}

func TestFanoutSourcePanicReachesEveryFeed(t *testing.T) {
	// A source that panics on the decoder goroutine ends the stream, and
	// every feed's Next re-raises the panic on its consumer's goroutine.
	for _, d := range []distribution{broadcasting, routing} {
		t.Run(d.name, func(t *testing.T) {
			accs := broadcastAccesses(5_000)
			var served int
			src := Func(func() (Access, bool) {
				if served == 3_000 {
					panic("source failed")
				}
				served++
				return accs[served-1], true
			})
			const feeds = 3
			b := d.open(src, 64, feeds, 0)
			got := make([]any, feeds)
			var wg sync.WaitGroup
			for i := range feeds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { got[i] = recover() }()
					drainFeed(b.Sub(i))
				}()
			}
			wg.Wait()
			b.Stop()
			for i, p := range got {
				if p != "source failed" {
					t.Fatalf("feed %d recovered %v, want the source's panic", i, p)
				}
			}
		})
	}
}
