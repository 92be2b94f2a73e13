package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format v1.
//
// Header: magic "C8TT", one version byte.
// Records, repeated until EOF, each:
//
//	byte 0: bit0 kind (0=read, 1=write), bits1-3 log2(size), bit4 reserved
//	uvarint: zigzag-encoded delta of Addr from previous record
//	uvarint: Gap
//	uvarint: Data
//
// Address deltas are zigzag-encoded because real request streams move both
// up and down; sequential streams compress to ~3 bytes per record.

var magic = [4]byte{'C', '8', 'T', 'T'}

const formatVersion = 1

// ErrBadMagic reports that a trace file does not start with the format magic.
var ErrBadMagic = errors.New("trace: bad magic (not a cache8t trace)")

// Writer encodes accesses into the binary trace format.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	count    uint64
	buf      [3 * binary.MaxVarintLen64]byte
	started  bool
}

// NewWriter returns a Writer emitting to w. The header is written lazily on
// the first Write (or by Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (tw *Writer) start() error {
	if tw.started {
		return nil
	}
	tw.started = true
	if _, err := tw.w.Write(magic[:]); err != nil {
		return err
	}
	return tw.w.WriteByte(formatVersion)
}

func log2Size(size uint8) (uint8, error) {
	switch size {
	case 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	default:
		return 0, fmt.Errorf("trace: unsupported access size %d", size)
	}
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write encodes one access.
func (tw *Writer) Write(a Access) error {
	if err := tw.start(); err != nil {
		return err
	}
	l2, err := log2Size(a.Size)
	if err != nil {
		return err
	}
	head := byte(a.Kind&1) | l2<<1
	if err := tw.w.WriteByte(head); err != nil {
		return err
	}
	n := binary.PutUvarint(tw.buf[:], zigzag(int64(a.Addr-tw.prevAddr)))
	n += binary.PutUvarint(tw.buf[n:], uint64(a.Gap))
	n += binary.PutUvarint(tw.buf[n:], a.Data)
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return err
	}
	tw.prevAddr = a.Addr
	tw.count++
	return nil
}

// Count returns the number of accesses written.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush writes the header (if nothing was written yet) and flushes buffers.
func (tw *Writer) Flush() error {
	if err := tw.start(); err != nil {
		return err
	}
	return tw.w.Flush()
}

// Reader decodes accesses from the binary trace format. It implements Stream;
// decode errors are surfaced via Err after Next returns false.
type Reader struct {
	r        *bufio.Reader
	prevAddr uint64
	err      error
	started  bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (tr *Reader) startRead() error {
	if tr.started {
		return nil
	}
	tr.started = true
	var hdr [5]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return ErrBadMagic
		}
		return err
	}
	if [4]byte(hdr[:4]) != magic {
		return ErrBadMagic
	}
	if hdr[4] != formatVersion {
		return fmt.Errorf("trace: unsupported format version %d", hdr[4])
	}
	return nil
}

// Next returns the next access. On end of trace or error it reports false;
// check Err to distinguish.
func (tr *Reader) Next() (Access, bool) {
	if tr.err != nil {
		return Access{}, false
	}
	if err := tr.startRead(); err != nil {
		tr.err = err
		return Access{}, false
	}
	head, err := tr.r.ReadByte()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			tr.err = err
		}
		return Access{}, false
	}
	delta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = truncated(err)
		return Access{}, false
	}
	gap, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = truncated(err)
		return Access{}, false
	}
	data, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = truncated(err)
		return Access{}, false
	}
	addr := tr.prevAddr + uint64(unzigzag(delta))
	tr.prevAddr = addr
	return Access{
		Kind: Kind(head & 1),
		Size: 1 << ((head >> 1) & 3),
		Addr: addr,
		Gap:  uint32(gap),
		Data: data,
	}, true
}

// maxRecordLen is the longest a record can be: the head byte plus three
// maximal varints.
const maxRecordLen = 1 + 3*binary.MaxVarintLen64

// ReadBatch decodes up to len(dst) accesses into dst and returns how many it
// produced. It implements BatchSource: a Batcher over a Reader decodes whole
// batches with one call instead of one interface dispatch per access. A
// short or zero count means end of trace or a decode error — check Err.
//
// While a maximal record is buffered, records decode straight from the
// bufio.Reader's buffer, with no per-byte call. The tail near EOF, an
// overflowing varint and a read error go through Next, the reference
// decoder, so every error value is Next's own.
func (tr *Reader) ReadBatch(dst []Access) int {
	if tr.err != nil {
		return 0
	}
	if err := tr.startRead(); err != nil {
		tr.err = err
		return 0
	}
	n := 0
	for n < len(dst) {
		if _, err := tr.r.Peek(maxRecordLen); err != nil {
			break
		}
		buf, _ := tr.r.Peek(tr.r.Buffered())
		m, used, ok := tr.decodeBuffered(dst[n:], buf)
		tr.r.Discard(used)
		n += m
		if !ok {
			break
		}
	}
	for n < len(dst) {
		a, ok := tr.Next()
		if !ok {
			break
		}
		dst[n] = a
		n++
	}
	return n
}

// decodeBuffered decodes whole records from buf into dst while at least
// maxRecordLen bytes remain, so no record can run off the end of buf. It
// returns the records decoded and the bytes they used; ok is false when it
// stopped at a record with an overflowing varint, which it leaves unread.
func (tr *Reader) decodeBuffered(dst []Access, buf []byte) (n, used int, ok bool) {
	addr := tr.prevAddr
	ok = true
records:
	for n < len(dst) && len(buf)-used >= maxRecordLen {
		rec := buf[used:]
		// The delta, gap and data varints; most deltas and gaps are one byte.
		var f [3]uint64
		k := 1
		for i := range f {
			x, w := uint64(rec[k]), 1
			if x >= 0x80 {
				if x, w = binary.Uvarint(rec[k:]); w <= 0 {
					ok = false
					break records
				}
			}
			f[i] = x
			k += w
		}
		head := rec[0]
		addr += uint64(unzigzag(f[0]))
		dst[n] = Access{
			Kind: Kind(head & 1),
			Size: 1 << ((head >> 1) & 3),
			Addr: addr,
			Gap:  uint32(f[1]),
			Data: f[2],
		}
		n++
		used += k
	}
	tr.prevAddr = addr
	return n, used, ok
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Err returns the first error encountered while decoding, if any. A cleanly
// terminated trace leaves Err nil.
func (tr *Reader) Err() error { return tr.err }

// WriteAll encodes every access from s (up to max; max<=0 means all) and
// flushes. It returns the number written.
func WriteAll(w io.Writer, s Stream, max int) (uint64, error) {
	tw := NewWriter(w)
	if err := tw.writeStream(s, max); err != nil {
		return tw.Count(), err
	}
	return tw.Count(), tw.Flush()
}

// writeStream encodes up to max accesses of s (max<=0 means all), pulling
// them a batch at a time through FillBatch and never past max.
func (tw *Writer) writeStream(s Stream, max int) error {
	buf := make([]Access, DefaultBatchSize)
	for n := 0; max <= 0 || n < max; {
		want := len(buf)
		if max > 0 {
			want = min(want, max-n)
		}
		got := FillBatch(s, buf[:want])
		for _, a := range buf[:got] {
			if err := tw.Write(a); err != nil {
				return err
			}
		}
		if got < want {
			return nil
		}
		n += got
	}
	return nil
}

// ReadAll decodes an entire trace into memory.
func ReadAll(r io.Reader) ([]Access, error) {
	tr := NewReader(r)
	var out []Access
	for {
		a, ok := tr.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out, tr.Err()
}
