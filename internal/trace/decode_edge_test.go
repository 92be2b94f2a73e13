package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
)

// edgeTrace encodes n pseudo-random accesses whose records take every
// length the Writer produces, 4 to 26 bytes, and returns the bytes with the
// offset at which each record starts.
func edgeTrace(t testing.TB, n int) ([]byte, []int) {
	t.Helper()
	r := rand.New(rand.NewPCG(7, uint64(n)))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	starts := make([]int, n)
	var addr uint64
	for i := range starts {
		starts[i] = buf.Len()
		addr += r.Uint64() >> r.IntN(64)
		a := Access{
			Kind: Kind(i & 1),
			Size: 1 << r.IntN(4),
			Addr: addr,
			Gap:  uint32(r.Uint64() >> r.IntN(64)),
			Data: r.Uint64() >> r.IntN(64),
		}
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), starts
}

// overflowTrace is n valid records followed by a record whose address
// delta is an 11-byte varint, with enough bytes after it that the decoder
// meets it while a maximal record is still buffered.
func overflowTrace(t testing.TB, n int) []byte {
	t.Helper()
	valid, _ := edgeTrace(t, n)
	out := append([]byte(nil), valid...)
	out = append(out, 0)
	out = append(out, bytes.Repeat([]byte{0xff}, 10)...)
	out = append(out, 0x01)
	return append(out, make([]byte, maxRecordLen)...)
}

// splitReader serves data in pieces that each end one byte into a record,
// so every refill of the decoder's buffer splits a record.
type splitReader struct {
	data []byte
	ends []int // ascending piece ends, as offsets into the original data
	pos  int
}

func newSplitReader(data []byte, starts []int) *splitReader {
	r := &splitReader{data: data}
	for i := 0; i < len(starts); i += 37 {
		r.ends = append(r.ends, starts[i]+1)
	}
	return r
}

func (r *splitReader) Read(p []byte) (int, error) {
	if r.pos == len(r.data) {
		return 0, io.EOF
	}
	for len(r.ends) > 0 && r.ends[0] <= r.pos {
		r.ends = r.ends[1:]
	}
	end := len(r.data)
	if len(r.ends) > 0 {
		end = r.ends[0]
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// requireSameDecode fails unless a batched decode gave exactly the accesses
// and the error text of the reference.
func requireSameDecode(t *testing.T, label string, got []Access, gotErr error, want []Access, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accesses, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d = %v, want %v", label, i, got[i], want[i])
		}
	}
	if g, w := errText(gotErr), errText(wantErr); g != w {
		t.Fatalf("%s: error %q, want %q", label, g, w)
	}
}

// TestReadBatchEdges pins the buffered decode path of Reader.ReadBatch to
// ReadAll, the per-access reference, at the edges the fast path hands back
// to Next: buffer refills inside a record, a trace cut at every byte of its
// last three records, and an overflowing varint.
func TestReadBatchEdges(t *testing.T) {
	long, starts := edgeTrace(t, 10000)
	if len(long) <= 1<<16 {
		t.Fatalf("long trace is %d bytes, want more than the 64 KiB read buffer", len(long))
	}
	type input struct {
		name string
		data []byte
		src  func() io.Reader
	}
	plain := func(data []byte) func() io.Reader {
		return func() io.Reader { return bytes.NewReader(data) }
	}
	inputs := []input{
		{"long", long, plain(long)},
		{"long/split", long, func() io.Reader { return newSplitReader(long, starts) }},
	}
	for cut := starts[len(starts)-3]; cut < len(long); cut++ {
		inputs = append(inputs, input{fmt.Sprintf("cut@%d", cut), long[:cut], plain(long[:cut])})
	}
	over := overflowTrace(t, 1000)
	if accs, err := ReadAll(bytes.NewReader(over)); len(accs) != 1000 || !strings.Contains(errText(err), "overflow") {
		t.Fatalf("overflow input: ReadAll gave %d accesses and %v", len(accs), err)
	}
	inputs = append(inputs, input{"overflow", over, plain(over)})

	for _, in := range inputs {
		want, wantErr := ReadAll(bytes.NewReader(in.data))
		for _, size := range []int{1, 7, 4096} {
			label := fmt.Sprintf("%s, batch %d", in.name, size)
			b := NewBatcher(NewReader(in.src()), size)
			got := drainBatches(t, b, size)
			requireSameDecode(t, label, got, b.Err(), want, wantErr)
			if b.Count() != uint64(len(want)) {
				t.Fatalf("%s: Count %d, want %d", label, b.Count(), len(want))
			}
		}
	}
}

// TestLimitBatches pins a bounded batched replay of a binary trace to the
// ReadAll prefix: Limit decodes natively through the Reader, never past its
// budget, and surfaces the error of a truncated tail it reaches.
func TestLimitBatches(t *testing.T) {
	full, _ := edgeTrace(t, 3000)
	truncated := full[:len(full)-1] // cuts the last record short
	for _, data := range [][]byte{full, truncated} {
		all, allErr := ReadAll(bytes.NewReader(data))
		for _, max := range []int{1, 1000, len(all), len(all) + 1, 5000} {
			for _, size := range []int{1, 7, 4096} {
				src := &batchOnly{Reader: NewReader(bytes.NewReader(data))}
				var s Stream = NewLimit(src, uint64(max))
				if _, ok := s.(BatchSource); !ok {
					t.Fatal("Limit does not implement BatchSource")
				}
				label := fmt.Sprintf("max %d, batch %d", max, size)
				b := NewBatcher(s, size)
				got := drainBatches(t, b, size)
				want, wantErr := all, allErr
				if max <= len(all) {
					want, wantErr = all[:max], nil
				}
				requireSameDecode(t, label, got, b.Err(), want, wantErr)
				if src.nexts != 0 {
					t.Fatalf("%s: Limit made %d Next calls, want batches only", label, src.nexts)
				}
			}
		}
	}
}
