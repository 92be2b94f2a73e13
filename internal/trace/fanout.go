package trace

// Decode-once fan-out: one decoder goroutine reads a stream once and deals
// it out to a fixed set of feeds, each drained by its own consumer. Two
// distributions share the engine:
//
//   - broadcast (NewBroadcast): every feed receives every batch. The
//     decoder decodes into one slab and publishes that same slab to every
//     feed — no copy, and for slice sources a zero-copy view of the
//     backing array.
//   - route (NewRouteBroadcast): a RouteFunc assigns each access of a
//     decoded batch to one feed, and the decoder appends it to that feed's
//     own slab. A consumer receives only its own accesses, contiguous, with
//     no ownership branch, and the stream is scanned once for all feeds
//     instead of once per feed.
//
// Every feed owns a slab ring: a delivery channel and a free list, each as
// deep as the feed's fixed slab population, so publishing a slab and
// releasing one never block. A slab goes decoder → ring → consumer → free
// list → decoder; the consumer releases the batch Next returned on its next
// Next (or on Stop). An empty free list is the backpressure: the decoder is
// at most ring-depth slabs ahead of the slowest consumer, so memory stays
// constant however long the stream is.
//
// A broadcast's feeds hold the same slabs. Every free list starts with the
// same slabs in the same order, and a feed releases slabs in the order it
// received them, so when the decoder takes one slab back from each feed's
// free list the N receives yield the same slab — and once it holds all N,
// no feed is still reading it. Sharing therefore needs no reference count.
//
// A routed feed's slab capacity adapts. Slabs start at twice the even split
// of a batch, power-of-two rounded, and the decoder tracks each feed's peak
// per-batch ownership as it routes. A recycled slab whose capacity has
// fallen behind that peak is replaced with a larger one (power-of-two
// steps, capped at the batch length) on its way out of the free list.
// Balanced routes keep every feed near batch/feeds of slab memory, a skewed
// feed grows to what it owns, and because growth stops once the peak does,
// steady state recycles without allocating.

import (
	"fmt"
	"sync/atomic"
)

// defaultSlabs is the per-feed ring depth used when callers pass slabs <= 0:
// enough for the decoder to work ahead of its consumers without ballooning
// read-ahead memory.
const defaultSlabs = 4

// minSlabCap floors adaptive slab capacity: below this, per-slab channel
// handshakes dominate and the memory saved is noise.
const minSlabCap = 64

// adaptSlabCap returns the adaptive slab capacity for an observed (or
// guessed) per-batch ownership peak: the smallest power-of-two multiple of
// minSlabCap that covers peak, never above the batch length (a slab can
// always hold everything one feed owns of one batch).
func adaptSlabCap(peak, size int) int {
	c := minSlabCap
	for c < peak && c < size {
		c <<= 1
	}
	if c > size {
		c = size
	}
	return c
}

// RouteFunc assigns each access of a decoded batch to a feed: called once
// per batch, it must fill dst[i] with the index of the feed owning
// batch[i], for every i. A negative value aborts the stream at that access
// with a *RouteError, so a router can refuse an access no feed may take.
// Batch-at-a-time routing keeps the indirect call off the per-access path
// and lets implementations scan the batch with whatever locality they like.
type RouteFunc func(batch []Access, dst []int32)

// RouteError reports that the RouteFunc refused an access (returned a
// negative feed). Accesses routed before it are still delivered.
type RouteError struct {
	// Access is the refused access.
	Access Access
}

// Error implements error.
func (e *RouteError) Error() string {
	return fmt.Sprintf("trace: access %v cannot be routed to a shard", e.Access)
}

// Batch is one delivered batch of accesses. It is valid until the feed's
// next Next (or Stop) call and must be treated as read-only: its slab is
// recycled, and a broadcast shares it with every other feed.
type Batch []Access

// Len returns the number of accesses in the batch.
func (b Batch) Len() int { return len(b) }

// Fanout decodes a stream once and deals it out to a fixed set of feeds.
// Construction starts the decoder goroutine; every feed must either be
// drained to the end or stopped, or the decoder stalls on its free list.
type Fanout struct {
	dec   decoder
	route RouteFunc // nil for a broadcast
	batch []Access  // routed: the decoded batch being dealt, reused
	dst   []int32   // routed: per-access feed assignment, reused
	owned []int     // routed: per-feed ownership count of the batch, reused
	feeds []*Feed
	quit  chan struct{} // closed when every feed has stopped
	done  chan struct{} // closed when the decoder goroutine exits
	live  atomic.Int32  // feeds that have not stopped
	// err is the decode or route error that ended the stream, and panicked
	// what the source or the route panicked with on the decoder goroutine.
	// Closing the rings publishes both.
	err      error
	panicked any
}

// newFanout builds the feeds of a fan-out over src (n < 1 means 1, slabs
// <= 0 means defaultSlabs, size <= 0 means DefaultBatchSize); the
// constructors stock the free lists and start the pump.
func newFanout(src Stream, route RouteFunc, size, n, slabs int) *Fanout {
	if n < 1 {
		n = 1
	}
	if slabs <= 0 {
		slabs = defaultSlabs
	}
	b := &Fanout{
		dec:   newDecoder(src, size),
		route: route,
		feeds: make([]*Feed, n),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range b.feeds {
		b.feeds[i] = &Feed{fan: b, ring: make(chan Batch, slabs), free: make(chan Batch, slabs)}
	}
	b.live.Store(int32(n))
	return b
}

// NewBroadcast returns a running Fanout that delivers every batch of src to
// each of n feeds, with batch length size (<= 0 means DefaultBatchSize) and
// ring depth slabs (<= 0 means 4): one pool of that many slabs, shared by
// all feeds. Slice sources are served as zero-copy views of the backing
// array; everything else decodes into the pooled slabs.
func NewBroadcast(src Stream, size, n, slabs int) *Fanout {
	b := newFanout(src, nil, size, n, slabs)
	for range cap(b.feeds[0].free) {
		var sl Batch // a slice source's slabs are only views
		if b.dec.slice == nil {
			sl = make(Batch, b.dec.size)
		}
		for _, f := range b.feeds {
			f.free <- sl
		}
	}
	go b.pump()
	return b
}

// NewRouteBroadcast returns a running Fanout that partitions src across n
// feeds by route, with batch length size (<= 0 means DefaultBatchSize) and
// ring depth slabs (<= 0 means 4), each feed owning that many slabs. Slabs
// start at an even-split capacity guess and grow toward each feed's
// observed peak per-batch ownership; a slab smaller than what a feed owns
// of one batch just publishes mid-batch, so no fill can ever overflow.
func NewRouteBroadcast(src Stream, route RouteFunc, size, n, slabs int) *Fanout {
	b := newFanout(src, route, size, n, slabs)
	b.dst = make([]int32, b.dec.size)
	b.owned = make([]int, len(b.feeds))
	// Twice the even split: routing is rarely perfectly balanced, and the
	// headroom keeps ordinary variance from triggering growth at all.
	initCap := adaptSlabCap(2*b.dec.size/len(b.feeds), b.dec.size)
	for _, f := range b.feeds {
		f.slabCap = initCap
		for range cap(f.free) {
			f.free <- make(Batch, 0, initCap)
		}
	}
	go b.pump()
	return b
}

// Sub returns feed i. Each Feed is single-consumer: exactly one goroutine
// may call its methods.
func (b *Fanout) Sub(i int) *Feed { return b.feeds[i] }

// Shard returns feed i, the one shard i of a routed fan-out drains.
func (b *Fanout) Shard(i int) *Feed { return b.feeds[i] }

// Err returns the error that ended the stream: the source's decode error,
// or the *RouteError that aborted routing. Valid once every feed has
// returned ok == false, or after Stop; nil for a cleanly exhausted source.
func (b *Fanout) Err() error { return b.err }

// Stop stops every feed that is still open and waits for the decoder
// goroutine to finish: once Stop returns, the source is no longer being
// read and may be closed. It must only be called once no other goroutine is
// using the feeds (after joining the consumers); it is how an aborted run
// avoids decoding the rest of the stream.
func (b *Fanout) Stop() {
	for _, f := range b.feeds {
		f.Stop()
	}
	<-b.done
}

// pump is the decoder loop. Closing the rings, after err and panicked are
// set, publishes the end of the stream, so a consumer that sees its ring
// closed also sees both. A panicking source or route ends the stream the
// same way and resurfaces from every feed's Next, on the consumers'
// goroutines, where a caller can recover it, instead of killing the process
// from this one.
func (b *Fanout) pump() {
	defer func() {
		b.panicked = recover()
		for _, f := range b.feeds {
			close(f.ring)
		}
		close(b.done)
	}()
	if b.route == nil {
		b.share()
	} else {
		b.deal()
	}
}

// share is the broadcast loop: take one slab back from every feed's free
// list, decode into it, and publish it to every feed.
func (b *Fanout) share() {
	for {
		var sl Batch
		for _, f := range b.feeds {
			// Never deadlocks: a stopped feed has a drainer recycling its
			// ring, and quit closes once every feed has stopped.
			select {
			case sl = <-f.free:
			case <-b.quit:
				return
			}
		}
		if sl = b.dec.next(sl); len(sl) == 0 {
			b.err = b.dec.err()
			return
		}
		for _, f := range b.feeds {
			f.ring <- sl
		}
	}
}

// deal is the routed loop: decode a batch, route it in one pass, and append
// each access to its feed's open slab, publishing slabs as they fill.
func (b *Fanout) deal() {
	for {
		b.batch = b.dec.next(b.batch)
		batch := b.batch
		if len(batch) == 0 {
			b.flush()
			b.err = b.dec.err()
			return
		}
		dst := b.dst[:len(batch)]
		b.route(batch, dst)
		// Count ownership before appending so even this batch's slab
		// acquisitions see the updated capacity target.
		for i := range b.owned {
			b.owned[i] = 0
		}
		for _, k := range dst {
			if k >= 0 && int(k) < len(b.owned) {
				b.owned[k]++
			}
		}
		for i, f := range b.feeds {
			if b.owned[i] > f.peak {
				f.peak = b.owned[i]
				f.slabCap = max(f.slabCap, adaptSlabCap(f.peak, b.dec.size))
			}
		}
		for i, k := range dst {
			if k < 0 || int(k) >= len(b.feeds) {
				// The router refused this access. Deliver what was routed
				// before it, then abort the stream.
				b.flush()
				b.err = &RouteError{Access: batch[i]}
				return
			}
			f := b.feeds[k]
			if f.fill == nil && !f.acquire() {
				return // every consumer stopped; nobody wants the rest
			}
			f.fill = append(f.fill, batch[i])
			if len(f.fill) == cap(f.fill) {
				f.publish()
			}
		}
	}
}

// flush publishes every feed's partly filled slab.
func (b *Fanout) flush() {
	for _, f := range b.feeds {
		if len(f.fill) > 0 {
			f.publish()
		}
	}
}

// Feed is one consumer's side of a Fanout: a ring of slabs holding, in
// stream order, every batch (broadcast) or only the feed's own accesses
// (route).
type Feed struct {
	fan  *Fanout
	ring chan Batch // published slabs, in stream order
	free chan Batch // released slabs, in the same order
	cur  Batch      // consumer side: the batch Next last returned
	done bool

	// The decoder's side of a routed feed: the open slab it appends to, the
	// peak per-batch ownership seen so far, and the slab capacity that peak
	// implies. Slabs behind the capacity are replaced as they leave the
	// free list.
	fill    Batch
	peak    int
	slabCap int
}

// acquire takes a free slab as the routed feed's open slab (true), or
// reports that every feed has stopped (false). The population is
// unchanged when a slab is replaced, so ring and free list never overflow.
func (f *Feed) acquire() bool {
	select {
	case s := <-f.free:
		if cap(s) < f.slabCap {
			s = make(Batch, 0, f.slabCap)
		}
		f.fill = s[:0]
		return true
	case <-f.fan.quit:
		return false
	}
}

// publish hands the open slab to the consumer. It never blocks: the ring
// is as deep as the feed's slab population.
func (f *Feed) publish() {
	f.ring <- f.fill
	f.fill = nil
}

// Next releases the previous batch and returns the next one. ok is false
// when the stream is exhausted, failed (check the Fanout's Err), or the
// feed was stopped. If the source or the route panicked, Next panics with
// the same value.
func (f *Feed) Next() (Batch, bool) {
	f.release()
	if f.done {
		return nil, false
	}
	sl, ok := <-f.ring
	if !ok {
		f.done = true
		if p := f.fan.panicked; p != nil {
			panic(p)
		}
		return nil, false
	}
	f.cur = sl
	return sl, true
}

// Stop abandons the feed early: the current batch is released and a drainer
// keeps the ring flowing into the free list, so the decoder never stalls on
// this feed. Once every feed is stopped the decoder exits without decoding
// the rest of the stream. Stop is idempotent; an exhausted feed ignores it.
// Like Next, it may only be called by the consuming goroutine (or after
// that goroutine has been joined).
func (f *Feed) Stop() {
	if f.done {
		return
	}
	f.done = true
	f.release()
	go func() {
		for sl := range f.ring {
			f.free <- sl
		}
	}()
	if f.fan.live.Add(-1) == 0 {
		close(f.fan.quit)
	}
}

// release returns the current batch to the free list. It never blocks: the
// free list is as deep as the feed's slab population.
func (f *Feed) release() {
	if f.cur != nil {
		f.free <- f.cur
		f.cur = nil
	}
}
