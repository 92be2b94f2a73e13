package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// drainBatches collects every access a Batcher yields, checking batch sizing
// invariants along the way.
func drainBatches(t *testing.T, b *Batcher, size int) []Access {
	t.Helper()
	var out []Access
	for {
		batch, ok := b.Next()
		if !ok {
			break
		}
		if len(batch) == 0 {
			t.Fatal("empty batch with ok=true")
		}
		if len(batch) > size {
			t.Fatalf("batch of %d exceeds size %d", len(batch), size)
		}
		out = append(out, batch...)
	}
	return out
}

func TestBatcherMatchesSlice(t *testing.T) {
	in := sampleAccesses(1000)
	for _, size := range []int{1, 3, 64, 1000, 4096} {
		b := NewBatcher(FromSlice(in), size)
		got := drainBatches(t, b, size)
		if len(got) != len(in) {
			t.Fatalf("size %d: got %d accesses, want %d", size, len(got), len(in))
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("size %d: access %d = %v, want %v", size, i, got[i], in[i])
			}
		}
		if b.Count() != uint64(len(in)) {
			t.Fatalf("size %d: Count = %d", size, b.Count())
		}
		if err := b.Err(); err != nil {
			t.Fatalf("size %d: Err = %v", size, err)
		}
	}
}

// batchOnly is a Reader that counts how it is read.
type batchOnly struct {
	*Reader
	batches, nexts int
}

func (s *batchOnly) ReadBatch(dst []Access) int { s.batches++; return s.Reader.ReadBatch(dst) }
func (s *batchOnly) Next() (Access, bool)       { s.nexts++; return s.Reader.Next() }

func TestBatcherUsesNativeBatchDecode(t *testing.T) {
	in := sampleAccesses(777)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(in), 0); err != nil {
		t.Fatal(err)
	}
	src := &batchOnly{Reader: NewReader(&buf)}
	b := NewBatcher(src, 256)
	got := drainBatches(t, b, 256)
	if src.batches == 0 || src.nexts != 0 {
		t.Fatalf("Batcher over a BatchSource made %d ReadBatch and %d Next calls, want only ReadBatch", src.batches, src.nexts)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d accesses, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("access %d = %v, want %v", i, got[i], in[i])
		}
	}
}

func TestBatcherSurfacesDecodeError(t *testing.T) {
	in := sampleAccesses(100)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(in), 0); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-3]
	b := NewBatcher(NewReader(bytes.NewReader(truncated)), 32)
	got := drainBatches(t, b, 32)
	if len(got) >= len(in) {
		t.Fatalf("decoded %d accesses from a truncated trace", len(got))
	}
	if !errors.Is(b.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("Err = %v, want unexpected EOF", b.Err())
	}
}

func TestBatcherZeroAllocPerBatch(t *testing.T) {
	in := sampleAccesses(1 << 14)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(in), 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var b *Batcher
	var total int
	allocs := testing.AllocsPerRun(1, func() {
		// The Reader and Batcher buffers are allocated up front; the drain
		// loop itself must not allocate per batch or per access.
		b = NewBatcher(NewReader(bytes.NewReader(data)), 512)
		for {
			batch, ok := b.Next()
			if !ok {
				break
			}
			total += len(batch)
		}
	})
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	// Construction allocates a handful of buffers (bufio, batch, reader);
	// a per-access or per-batch leak would show up as hundreds.
	if allocs > 12 {
		t.Fatalf("%v allocations for a %d-access drain (want construction-only)", allocs, total)
	}
}

func TestBatcherDrain(t *testing.T) {
	in := sampleAccesses(300)
	var n int
	err := NewBatcher(FromSlice(in), 64).Drain(func(batch []Access) error {
		n += len(batch)
		return nil
	})
	if err != nil || n != len(in) {
		t.Fatalf("Drain: n=%d err=%v", n, err)
	}
	wantErr := errors.New("stop")
	err = NewBatcher(FromSlice(in), 64).Drain(func([]Access) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Drain err = %v", err)
	}
}

func TestTextReaderStreamsAndMatchesParseText(t *testing.T) {
	src := "# header comment\nR 0x1000 8\nW 0x1008 8 0x2a gap=3\n\nW 0x1010 4 42\n"
	want, err := parseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTextReader(strings.NewReader(src))
	got := drainBatches(t, NewBatcher(tr, 2), 2)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTextReaderSurfacesParseError(t *testing.T) {
	tr := NewTextReader(strings.NewReader("R 0x1000 8\nbogus line\nR 0x2000 8\n"))
	var n int
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("decoded %d accesses before the bad line, want 1", n)
	}
	if tr.Err() == nil || !strings.Contains(tr.Err().Error(), "line 2") {
		t.Fatalf("Err = %v, want a line-2 parse error", tr.Err())
	}
}

func TestNewAnyReaderSniffsAllFramings(t *testing.T) {
	in := sampleAccesses(50)
	// Text framing zeroes read data (documented lossy field); align the
	// fixture so all three framings decode identically.
	for i := range in {
		if in[i].Kind == Read {
			in[i].Data = 0
		}
	}

	var binBuf, gzBuf, txtBuf bytes.Buffer
	if _, err := WriteAll(&binBuf, FromSlice(in), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteAllAuto(&gzBuf, FromSlice(in), 0, true); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txtBuf, in); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{
		"binary": binBuf.Bytes(),
		"gzip":   gzBuf.Bytes(),
		"text":   txtBuf.Bytes(),
	} {
		r, err := NewAnyReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := Collect(r, 0)
		if r.Err() != nil {
			t.Fatalf("%s: %v", name, r.Err())
		}
		if len(got) != len(in) {
			t.Fatalf("%s: got %d accesses, want %d", name, len(got), len(in))
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("%s: access %d = %v, want %v", name, i, got[i], in[i])
			}
		}
	}
}
