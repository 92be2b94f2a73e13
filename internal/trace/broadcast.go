package trace

// Single-decode batch broadcast: one decoder goroutine fills reference-
// counted batch slabs that fan out to any number of consumers. Where a
// Batcher serves exactly one consumer from one reusable buffer, a Broadcast
// serves N consumers from a small fixed pool of slabs — the trace is decoded
// (or generated) exactly once no matter how many controllers or shards
// consume it, and steady-state operation allocates nothing: slabs circulate
// decoder → subscribers → free list, recycled when the last subscriber
// releases them.
//
// Lifecycle of one slab:
//
//  1. the decoder receives it from the free list,
//  2. fills it (native ReadBatch, per-access Next, or — for slice sources —
//     a zero-copy subslice view) and sets its reference count to the
//     subscriber count,
//  3. sends it to every subscriber's channel,
//  4. each subscriber reads the view, then releases it on its next Next (or
//     on Stop); the final release returns the slab to the free list.
//
// The pool depth bounds decoder read-ahead: with k slabs the decoder is at
// most k batches ahead of the slowest subscriber, so memory stays constant
// for arbitrarily long streams.

import (
	"sync/atomic"
)

// DefaultBroadcastSlabs is the slab-pool depth used when callers pass
// slabs <= 0: enough for the decoder to work one batch ahead of consumers
// without ballooning read-ahead memory.
const DefaultBroadcastSlabs = 4

// slab is one pooled batch buffer plus its fan-out reference count.
type slab struct {
	// buf is the owned decode buffer; nil for zero-copy slice views.
	buf []Access
	// view is what subscribers read: buf[:n], or a subslice of a
	// SliceStream's backing array. Read-only for subscribers.
	view []Access
	// refs counts subscribers that have not yet released the slab.
	refs atomic.Int32
}

// Broadcast decodes src once and fans identical batches out to a fixed set
// of subscribers. Construction starts the decoder goroutine; every
// subscriber must either drain its Subscription to the end or Stop it, or
// the slab pool runs dry and the decoder stalls.
type Broadcast struct {
	src   Stream
	slice *SliceStream // non-nil when src is an in-memory slice: zero-copy
	size  int
	subs  []*Subscription
	free  chan *slab
	quit  chan struct{} // closed when every subscriber has stopped early
	done  chan struct{} // closed when the decoder goroutine exits
	live  atomic.Int32  // subscribers that have not stopped
	err   error         // decode error; published by closing the sub channels
	// panicked is what the source panicked with on the decoder goroutine,
	// published like err; each subscriber re-raises it from Next.
	panicked any
}

// NewBroadcast returns a running Broadcast over src with nsubs subscribers,
// batch length size (<= 0 means DefaultBatchSize), and a pool of slabs
// buffers (<= 0 means DefaultBroadcastSlabs). Like Batcher, slice sources
// are served zero-copy; everything else decodes into the pooled slabs.
func NewBroadcast(src Stream, size, nsubs, slabs int) *Broadcast {
	if size <= 0 {
		size = DefaultBatchSize
	}
	if slabs <= 0 {
		slabs = DefaultBroadcastSlabs
	}
	if nsubs < 1 {
		nsubs = 1
	}
	b := &Broadcast{
		src:  src,
		size: size,
		free: make(chan *slab, slabs),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	b.slice, _ = src.(*SliceStream)
	for i := 0; i < slabs; i++ {
		b.free <- &slab{}
	}
	b.subs = make([]*Subscription, nsubs)
	for i := range b.subs {
		// Channel capacity = pool depth: the decoder can always hand off a
		// filled slab without waiting for the subscriber to be mid-receive.
		b.subs[i] = &Subscription{b: b, ch: make(chan *slab, slabs)}
	}
	b.live.Store(int32(nsubs))
	go b.pump()
	return b
}

// Sub returns subscriber i. Each Subscription is single-consumer: exactly
// one goroutine may call its methods.
func (b *Broadcast) Sub(i int) *Subscription { return b.subs[i] }

// Err surfaces the source's decode error. Valid once every Subscription has
// returned ok == false; nil for a cleanly exhausted source.
func (b *Broadcast) Err() error { return b.err }

// Stop stops every subscription that is still open, releasing its slabs and
// letting the decoder exit early, then waits for the decoder goroutine to
// finish: once Stop returns, the source is no longer being read and may be
// closed. It must only be called once no other goroutine is using the
// subscriptions (after joining the consumers); it is how an aborted run
// avoids decoding the rest of the stream.
func (b *Broadcast) Stop() {
	for _, s := range b.subs {
		s.Stop()
	}
	<-b.done
}

// pump is the decoder loop: fill a free slab, reference it once per
// subscriber, hand it to everyone. Closing the subscriber channels (after
// b.err is set) is what publishes end-of-stream, so subscribers observing
// a closed channel also observe the final err value. A panicking source
// ends the stream the same way, so the panic resurfaces on the consumers'
// goroutines, where a caller can recover it, instead of killing the
// process from this one.
func (b *Broadcast) pump() {
	defer func() {
		b.panicked = recover()
		for _, s := range b.subs {
			close(s.ch)
		}
		close(b.done)
	}()
	for {
		var sl *slab
		select {
		case <-b.quit:
			return
		case sl = <-b.free:
		}
		if n := b.fill(sl); n == 0 {
			if es, ok := b.src.(ErrStream); ok {
				b.err = es.Err()
			}
			return
		}
		sl.refs.Store(int32(len(b.subs)))
		for _, s := range b.subs {
			// Never deadlocks: a stopped subscription has a drainer emptying
			// its channel, and quit only closes once every subscription has
			// stopped — at which point all channels are drained.
			s.ch <- sl
		}
	}
}

// fill loads the next batch into sl and returns its length (0 = exhausted
// or errored source).
func (b *Broadcast) fill(sl *slab) int {
	if b.slice != nil {
		sl.view = b.slice.nextBatch(b.size)
		return len(sl.view)
	}
	if sl.buf == nil {
		sl.buf = make([]Access, b.size)
	}
	sl.view = sl.buf[:FillBatch(b.src, sl.buf)]
	return len(sl.view)
}

// release recycles sl once the last subscriber lets go of it.
func (b *Broadcast) release(sl *slab) {
	if sl.refs.Add(-1) == 0 {
		select {
		case b.free <- sl:
		default:
			// Free list full — only possible after an early Stop abandoned
			// refs; dropping the slab is fine, the decoder is exiting.
		}
	}
}

// Subscription is one consumer's view of a Broadcast. The slice returned by
// Next is valid only until the next Next (or Stop) call and must be treated
// as read-only — it is shared with every other subscriber.
type Subscription struct {
	b    *Broadcast
	ch   chan *slab
	cur  *slab
	done bool
}

// Next releases the previous batch and returns the next one. ok is false
// when the stream is exhausted, errored (check the Broadcast's Err), or the
// subscription was stopped. If the source panicked, Next panics with the
// same value.
func (s *Subscription) Next() ([]Access, bool) {
	s.releaseCur()
	if s.done {
		return nil, false
	}
	sl, ok := <-s.ch
	if !ok {
		s.done = true
		if p := s.b.panicked; p != nil {
			panic(p)
		}
		return nil, false
	}
	s.cur = sl
	return sl.view, true
}

// Err surfaces the source's decode error; valid once Next has returned
// ok == false.
func (s *Subscription) Err() error { return s.b.err }

// Stop abandons the subscription early: the current batch is released and a
// drainer keeps the channel flowing (releasing every remaining slab) so the
// other subscribers and the decoder never stall. Once every subscription is
// stopped the decoder exits without decoding the rest of the stream. Stop is
// idempotent; a cleanly exhausted subscription ignores it. Like Next, it may
// only be called by the consuming goroutine (or after that goroutine has
// been joined).
func (s *Subscription) Stop() {
	if s.done {
		return
	}
	s.done = true
	s.releaseCur()
	go func() {
		for sl := range s.ch {
			s.b.release(sl)
		}
	}()
	if s.b.live.Add(-1) == 0 {
		close(s.b.quit)
	}
}

func (s *Subscription) releaseCur() {
	if s.cur != nil {
		sl := s.cur
		s.cur = nil
		s.b.release(sl)
	}
}
