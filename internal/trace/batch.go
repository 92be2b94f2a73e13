package trace

// Batched streaming: the hot simulation path pulls accesses in fixed-size
// batches instead of one interface call per access. A Batcher owns exactly
// one reusable batch buffer, so draining a trace of any length costs a
// constant amount of memory and no per-access allocation; sources that can
// decode natively into a slice (the binary Reader) skip the per-access
// Stream.Next dispatch entirely.

// DefaultBatchSize is the batch length used when callers pass size <= 0.
// 4096 accesses (96 KiB of batch buffer) amortizes interface dispatch and
// context polls without hurting cache locality.
const DefaultBatchSize = 4096

// BatchSource is implemented by streams that can fill a caller-provided
// slice natively, without a Stream.Next call per access. ReadBatch returns
// how many accesses it decoded into dst; a short (possibly zero) count means
// the source is exhausted or failed — check Err via ErrStream.
type BatchSource interface {
	ReadBatch(dst []Access) int
}

// FillBatch fills dst from s and returns how many accesses it produced:
// natively when s is a BatchSource, otherwise with one Next per access. A
// short count means s is exhausted or failed.
func FillBatch(s Stream, dst []Access) int {
	if bs, ok := s.(BatchSource); ok {
		return bs.ReadBatch(dst)
	}
	n := 0
	for n < len(dst) {
		a, ok := s.Next()
		if !ok {
			break
		}
		dst[n] = a
		n++
	}
	return n
}

// ErrStream is a Stream whose source can fail mid-decode (file corruption,
// truncation). A cleanly exhausted stream leaves Err nil.
type ErrStream interface {
	Stream
	Err() error
}

// decoder is the decode core shared by Batcher and Fanout: one batch of the
// source at a time, through the fastest path the source supports — a
// zero-copy subslice view for in-memory slices, FillBatch into a caller's
// buffer for everything else.
type decoder struct {
	src   Stream
	slice *SliceStream // non-nil when src is an in-memory slice: zero-copy
	size  int
}

// newDecoder classifies src and fixes the batch length (size <= 0 means
// DefaultBatchSize).
func newDecoder(src Stream, size int) decoder {
	if size <= 0 {
		size = DefaultBatchSize
	}
	d := decoder{src: src, size: size}
	d.slice, _ = src.(*SliceStream)
	return d
}

// next returns the next batch: a subslice of the backing array for slice
// sources, otherwise buf refilled from the source (replaced by a fresh
// batch-length buffer when it is smaller). An empty batch means the source
// is exhausted or errored (check err).
func (d *decoder) next(buf []Access) []Access {
	if d.slice != nil {
		return d.slice.nextBatch(d.size)
	}
	if cap(buf) < d.size {
		buf = make([]Access, d.size)
	}
	buf = buf[:d.size]
	return buf[:FillBatch(d.src, buf)]
}

// err surfaces the source's decode error, when the source tracks one.
func (d *decoder) err() error {
	if es, ok := d.src.(ErrStream); ok {
		return es.Err()
	}
	return nil
}

// Batcher adapts any Stream into a sequence of reusable fixed-size batches.
// The slice returned by Next aliases the Batcher's single internal buffer:
// it is valid only until the next Next call and must not be retained or
// mutated. Batchers are single-use and not safe for concurrent callers.
type Batcher struct {
	dec   decoder
	buf   []Access
	count uint64
}

// NewBatcher returns a Batcher over src with the given batch size (<= 0
// means DefaultBatchSize). For slice sources the batches are subslices of
// the backing array (no copy at all); for everything else a single batch
// buffer is allocated on first use.
func NewBatcher(src Stream, size int) *Batcher {
	return &Batcher{dec: newDecoder(src, size)}
}

// Next fills the internal buffer from the source and returns the filled
// prefix. ok is false when the source is exhausted (or errored — check Err);
// a final short batch is returned with ok true.
func (b *Batcher) Next() ([]Access, bool) {
	b.buf = b.dec.next(b.buf)
	if len(b.buf) == 0 {
		return nil, false
	}
	b.count += uint64(len(b.buf))
	return b.buf, true
}

// Count returns the total number of accesses yielded so far.
func (b *Batcher) Count() uint64 { return b.count }

// Err surfaces the source's decode error, when the source tracks one. A
// Batcher over an error-free source (a generator, a slice) always returns
// nil.
func (b *Batcher) Err() error { return b.dec.err() }

// Drain pulls every remaining batch through fn. It stops on the first fn
// error, and otherwise returns the source's decode error (nil for a clean
// end of stream).
func (b *Batcher) Drain(fn func(batch []Access) error) error {
	for {
		batch, ok := b.Next()
		if !ok {
			return b.Err()
		}
		if err := fn(batch); err != nil {
			return err
		}
	}
}
