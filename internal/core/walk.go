package core

import (
	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

// The walk is the functional half every scheme shares: the cache, and
// through it the shadow memory and replacement state. For each access it
// does the write-around or Ensure, then reads or writes the word, and
// reports an outcome beside the access. No scheme changes what the cache
// holds or what a read returns, so every accountant reads the same outcomes,
// and a multi-kind run walks once for all of them.

// outcome is what the walk did for one access: the set it mapped to (above
// outShift) and the flags below.
type outcome uint64

const (
	outWrite    outcome = 1 << iota // the access is a write
	outHit                          // its block was resident before it
	outSilent                       // a write that changed no byte of its block
	outStraddle                     // it crosses its block's end
	outAround                       // a write-around: no fill, no array operation
	outShift    = iota
)

// set returns the cache set the access mapped to.
func (o outcome) set() int { return int(o >> outShift) }

// walk serves accesses against one cache.
type walk struct {
	cache   *cache.Cache
	geom    cache.Geometry
	noAlloc bool
	outs    []outcome // the batch entry's outcomes, reused
	owned   []int     // a shard's owned indices of a batch, reused
}

// newWalk returns a walk of c.
func newWalk(c *cache.Cache) walk {
	return walk{cache: c, geom: c.Geometry(), noAlloc: c.NoWriteAllocate()}
}

// serve applies a to the cache and reports its outcome, with the line a
// read hit or filled.
func (w *walk) serve(a *trace.Access) (o outcome, set, way int) {
	if w.geom.BlockOffset(a.Addr)+int(a.Size) > w.geom.BlockBytes {
		o = outStraddle
	}
	write := a.Kind == trace.Write
	var hit bool
	if write && w.noAlloc {
		// A write miss under no-write-allocate goes around the cache, to
		// the next level.
		if set, _, hit = w.cache.Probe(a.Addr); !hit {
			w.cache.WriteAround(a.Addr, a.Size, a.Data)
			return o | outWrite | outAround | outcome(set)<<outShift, set, -1
		}
	}
	if set, way, hit = w.cache.Ensure(a.Addr, write); hit {
		o |= outHit
	}
	if write {
		o |= outWrite
		if w.cache.WriteWord(set, way, a.Addr, a.Size, a.Data) {
			o |= outSilent
		}
	}
	return o | outcome(set)<<outShift, set, way
}

// step serves one access and returns its value — the bytes read, or the
// bytes now stored — with its outcome.
func (w *walk) step(a *trace.Access) (uint64, outcome) {
	o, set, way := w.serve(a)
	switch {
	case o&outWrite == 0:
		return w.cache.ReadWord(set, way, a.Addr, a.Size), o
	case o&outAround != 0:
		return w.cache.PeekWord(a.Addr, a.Size), o
	}
	// The line now holds the low Size bytes of Data verbatim (a straddle's
	// spill included), so a store needs no read-back.
	return a.Data & sizeMask(a.Size), o
}

// batch serves accs in order and returns their outcomes, valid until the
// next call. It leaves values unread, which only step returns: the reads
// cost fig9_matrix and replay_write_burst about 5% of their throughput.
func (w *walk) batch(accs []trace.Access) []outcome {
	if cap(w.outs) < len(accs) {
		w.outs = make([]outcome, len(accs))
	}
	outs := w.outs[:len(accs)]
	for i := range outs {
		outs[i], _, _ = w.serve(&accs[i])
	}
	return outs
}

// shard serves, in order, the accesses of accs whose set this walk owns
// (mine[set] == 1), and writes each outcome at its access's index in outs:
// one walk of a sharded run. It returns the index of the first access that
// crosses its block's end, whose spill may reach another walk's set, or -1.
// Every walk checks every access, so all stop at the same one. A first pass
// lists the owned accesses without branching on ownership, which would
// mispredict on about every other access.
func (w *walk) shard(accs []trace.Access, outs []outcome, mine []uint8) int {
	if cap(w.owned) < len(accs) {
		w.owned = make([]int, len(accs))
	}
	owned := w.owned[:len(accs)]
	n, end := 0, 0
	for j := range accs {
		a := &accs[j]
		owned[n] = j
		n += int(mine[w.geom.SetIndex(a.Addr)])
		end = max(end, w.geom.BlockOffset(a.Addr)+int(a.Size))
	}
	if end > w.geom.BlockBytes {
		for j := range accs {
			if w.geom.BlockOffset(accs[j].Addr)+int(accs[j].Size) > w.geom.BlockBytes {
				return j
			}
		}
	}
	for _, j := range owned[:n] {
		outs[j], _, _ = w.serve(&accs[j])
	}
	return -1
}

// sizeMask selects the low size bytes of a data word. After a write commits,
// the stored value is exactly a.Data & sizeMask(a.Size) — cache.WriteWord
// stores those bytes verbatim (spill included) — so the walk returns the
// mask instead of paying a ReadWord per store.
func sizeMask(size uint8) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}
