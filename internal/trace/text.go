package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Human-readable text trace format, for hand-written test inputs and
// debugging dumps:
//
//	# comment
//	R 0x1000 8            read, address, size
//	W 0x1008 8 0x2a       write, address, size, data
//	W 0x1010 8 42 gap=3   optional instruction gap
//
// Addresses and data accept 0x-hex or decimal. Read data values are not
// encoded (they are observations; only write data feeds silent-store
// detection), so a binary->text->binary round trip zeroes them.

// TextReader decodes the text trace format one record at a time, so text
// traces stream through the batched pipeline like binary ones. It implements
// ErrStream; a parse error ends the stream and is surfaced via Err.
type TextReader struct {
	sc     *bufio.Scanner
	lineNo int
	err    error
}

// NewTextReader returns a streaming decoder over r.
func NewTextReader(r io.Reader) *TextReader {
	return &TextReader{sc: bufio.NewScanner(r)}
}

// Next returns the next access. On end of input or error it reports false;
// check Err to distinguish.
func (tr *TextReader) Next() (Access, bool) {
	if tr.err != nil {
		return Access{}, false
	}
	for tr.sc.Scan() {
		tr.lineNo++
		line := tr.sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		a, err := parseTextRecord(fields)
		if err != nil {
			tr.err = fmt.Errorf("trace: line %d: %w", tr.lineNo, err)
			return Access{}, false
		}
		return a, true
	}
	tr.err = tr.sc.Err()
	return Access{}, false
}

// Err returns the first scan or parse error, nil after a clean end of input.
func (tr *TextReader) Err() error { return tr.err }

func parseTextRecord(fields []string) (Access, error) {
	var a Access
	switch strings.ToUpper(fields[0]) {
	case "R":
		a.Kind = Read
	case "W":
		a.Kind = Write
	default:
		return a, fmt.Errorf("bad kind %q (want R or W)", fields[0])
	}
	if len(fields) < 3 {
		return a, fmt.Errorf("need at least kind, address, size")
	}
	addr, err := strconv.ParseUint(fields[1], 0, 64)
	if err != nil {
		return a, fmt.Errorf("bad address %q", fields[1])
	}
	a.Addr = addr
	size, err := strconv.ParseUint(fields[2], 0, 8)
	if err != nil || (size != 1 && size != 2 && size != 4 && size != 8) {
		return a, fmt.Errorf("bad size %q (want 1/2/4/8)", fields[2])
	}
	a.Size = uint8(size)
	rest := fields[3:]
	if a.Kind == Write {
		if len(rest) == 0 {
			return a, fmt.Errorf("write needs a data value")
		}
		data, err := strconv.ParseUint(rest[0], 0, 64)
		if err != nil {
			return a, fmt.Errorf("bad data %q", rest[0])
		}
		a.Data = data
		rest = rest[1:]
	}
	for _, f := range rest {
		val, ok := strings.CutPrefix(f, "gap=")
		if !ok {
			return a, fmt.Errorf("unexpected field %q", f)
		}
		gap, err := strconv.ParseUint(val, 0, 32)
		if err != nil {
			return a, fmt.Errorf("bad gap %q", val)
		}
		a.Gap = uint32(gap)
	}
	return a, nil
}

// WriteText encodes accesses in the text format.
func WriteText(w io.Writer, accesses []Access) error {
	bw := bufio.NewWriter(w)
	for _, a := range accesses {
		var err error
		if a.Kind == Write {
			_, err = fmt.Fprintf(bw, "W 0x%x %d 0x%x", a.Addr, a.Size, a.Data)
		} else {
			_, err = fmt.Fprintf(bw, "R 0x%x %d", a.Addr, a.Size)
		}
		if err != nil {
			return err
		}
		if a.Gap != 0 {
			if _, err := fmt.Fprintf(bw, " gap=%d", a.Gap); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
