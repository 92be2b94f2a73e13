package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"strings"
)

// Gzip framing for trace files: traces compress extremely well (delta
// encoding leaves mostly small varints), so the CLIs write .c8tt.gz when
// asked and auto-detect on read.

// gzipMagic is the two-byte gzip header.
var gzipMagic = [2]byte{0x1f, 0x8b}

// IsGzipPath reports whether a file name asks for gzip framing.
func IsGzipPath(path string) bool {
	return strings.HasSuffix(path, ".gz") || strings.HasSuffix(path, ".gzip")
}

// GzWriter wraps a Writer whose output is gzip-compressed. Close flushes
// both layers.
type GzWriter struct {
	*Writer
	gz *gzip.Writer
}

// NewGzWriter returns a trace writer that gzip-compresses its output.
func NewGzWriter(w io.Writer) *GzWriter {
	gz := gzip.NewWriter(w)
	return &GzWriter{Writer: NewWriter(gz), gz: gz}
}

// Close flushes the trace encoding and terminates the gzip stream.
func (g *GzWriter) Close() error {
	if err := g.Flush(); err != nil {
		return err
	}
	return g.gz.Close()
}

// NewAnyReader returns a streaming decoder over r for any trace framing:
// a gzip layer is unwrapped transparently, then the payload is sniffed as
// binary (the C8TT magic) or, failing that, decoded as the text format.
// This is what lets every CLI replay .c8tt, .c8tt.gz, and .txt traces
// through the same batched pipeline. An input with no bytes at all is no
// trace in any framing: it goes to the binary decoder, which fails it with
// ErrBadMagic rather than reading it as an empty text trace.
func NewAnyReader(r io.Reader) (ErrStream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if head, err := br.Peek(2); err == nil && len(head) == 2 &&
		head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		br = bufio.NewReaderSize(gz, 1<<16)
	}
	// Binary header validation happens on the first Next; the sniff here
	// only routes between the binary and text decoders.
	if head, _ := br.Peek(4); len(head) == 0 || bytes.Equal(head, magic[:]) {
		return NewReader(br), nil
	}
	return NewTextReader(br), nil
}

// WriteAllAuto encodes a stream like WriteAll, gzip-compressing when
// compress is true.
func WriteAllAuto(w io.Writer, s Stream, max int, compress bool) (uint64, error) {
	if !compress {
		return WriteAll(w, s, max)
	}
	gw := NewGzWriter(w)
	if err := gw.writeStream(s, max); err != nil {
		return gw.Count(), err
	}
	return gw.Count(), gw.Close()
}
