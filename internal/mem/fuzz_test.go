package mem

import (
	"encoding/binary"
	"slices"
	"testing"
)

// refMemory is the specification Memory is fuzzed against: a flat byte map
// plus the set of chunk bases a write has touched.
type refMemory struct {
	bytes  map[uint64]byte
	backed map[uint64]bool
}

func (r *refMemory) store(addr uint64, b byte) {
	r.bytes[addr] = b
	r.backed[addr&^(ChunkSize-1)] = true
}

func (r *refMemory) bases() []uint64 {
	out := make([]uint64, 0, len(r.backed))
	for base := range r.backed {
		out = append(out, base)
	}
	slices.Sort(out)
	return out
}

// fuzzOps decodes data into memory operations. Every operation reads its
// arguments from the front of the input; running out of input ends the
// sequence.
type fuzzOps struct{ data []byte }

func (f *fuzzOps) byte() (byte, bool) {
	if len(f.data) == 0 {
		return 0, false
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b, true
}

// wideBase is the fourth base of fuzzOps.addr: its addresses spread over
// wideWindow pages, more than the page memo has slots.
const (
	wideBase   = 1 << 40
	wideWindow = 256
)

// addr draws an address within 16 KiB (four pages) of one of three bases,
// so accesses cross chunk and page boundaries often, or, from the fourth
// base, in the first 256 bytes of one of wideWindow pages, so pages evict
// one another from the memo.
func (f *fuzzOps) addr() (uint64, bool) {
	if len(f.data) < 3 {
		return 0, false
	}
	bases := [...]uint64{0, 1 << 32, 1<<48 - 1<<13, wideBase}
	v := uint64(binary.LittleEndian.Uint16(f.data[1:]))
	b := bases[int(f.data[0])%len(bases)]
	f.data = f.data[3:]
	if b == wideBase {
		return b + v%wideWindow<<pageShift + v/wideWindow, true
	}
	return b + v%(1<<14), true
}

// wideOp encodes one fuzz operation on page page of the wide window, at
// offset off (below 256) of that page.
func wideOp(op byte, page, off uint64, arg byte) []byte {
	v := off*wideWindow + page
	return []byte{op, 3, byte(v), byte(v >> 8), arg}
}

// memoTwins returns two pages of the wide window that share a memo slot.
func memoTwins() (a, b uint64) {
	first := map[uint64]uint64{}
	for p := uint64(0); p < wideWindow; p++ {
		slot := memoIndex(wideBase>>pageShift + p)
		if q, ok := first[slot]; ok {
			return q, p
		}
		first[slot] = p
	}
	panic("no two wide-window pages share a memo slot")
}

// FuzzMemory applies an arbitrary sequence of stores, spanning reads and
// writes, word accesses (XorWord's read-modify-write too), clones and
// comparisons to a Memory and to a flat byte map. Every read, the backed
// chunk set, the footprint and Equal must agree with the map: the page
// table stores exactly the bytes and chunks a map of chunks would.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xfc, 0x0f, 0xab, 2, 0, 0xf0, 0x0f, 80})
	f.Add([]byte{1, 1, 0xf8, 0x0f, 200, 7, 3, 1, 0xfd, 0x0f, 3, 0x11, 0x22, 5, 1, 0xc0, 0x0f, 9, 6})
	f.Add([]byte{3, 2, 0xfe, 0x3f, 3, 1, 2, 3, 4, 5, 6, 7, 8, 4, 2, 0xfe, 0x3f, 3, 6, 5, 0, 1, 0, 1})
	// Back to page 0 after touching page 1, and a clone mutated over a
	// backed chunk.
	f.Add([]byte{0, 0, 0x10, 0x00, 0xaa, 0, 0, 0x10, 0x10, 0xbb, 4, 0, 0x10, 0x00, 0})
	f.Add([]byte{0, 0, 0x20, 0x00, 0x11, 5, 0, 0x20, 0x00, 0x02})
	// Read a page that does not exist (the memo remembers it as absent),
	// write it, and read it again.
	f.Add(slices.Concat(wideOp(2, 7, 60, 8), wideOp(3, 7, 60, 3), wideOp(2, 7, 56, 16), wideOp(4, 7, 60, 3)))
	// Two pages that share one memo slot, each evicting the other: absent
	// reads, writes, and reads back in turn.
	a, b := memoTwins()
	f.Add(slices.Concat(wideOp(4, a, 8, 3), wideOp(4, b, 8, 3), wideOp(0, a, 8, 0x5a),
		wideOp(4, b, 8, 3), wideOp(3, b, 16, 3), wideOp(4, a, 8, 0), wideOp(2, b, 0, 64), wideOp(2, a, 0, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New()
		ref := &refMemory{bytes: map[uint64]byte{}, backed: map[uint64]bool{}}
		ops := &fuzzOps{data: data}
		for {
			op, ok := ops.byte()
			if !ok {
				break
			}
			addr, ok := ops.addr()
			if !ok {
				break
			}
			arg, ok := ops.byte()
			if !ok {
				break
			}
			switch op % 8 {
			case 0: // StoreByte
				m.StoreByte(addr, arg)
				ref.store(addr, arg)
			case 1: // Write up to 255 bytes, a pattern seeded by arg
				src := make([]byte, arg)
				for i := range src {
					src[i] = arg ^ byte(i*31)
				}
				m.Write(addr, src)
				for i, b := range src {
					ref.store(addr+uint64(i), b)
				}
			case 2: // Read up to 255 bytes into a dirty buffer
				dst := make([]byte, arg)
				for i := range dst {
					dst[i] = 0xa5
				}
				m.Read(addr, dst)
				for i, b := range dst {
					if want := ref.bytes[addr+uint64(i)]; b != want {
						t.Fatalf("Read(%#x)[%d] = %#x, want %#x", addr, i, b, want)
					}
				}
			case 3: // WriteWord
				size := uint8(1) << (arg % 4)
				word := uint64(arg)*0x0101010101010101 ^ addr
				m.WriteWord(addr, size, word)
				for i := 0; i < int(size); i++ {
					ref.store(addr+uint64(i), byte(word>>(8*i)))
				}
			case 4: // ReadWord and WouldBeSilent
				size := uint8(1) << (arg % 4)
				var want uint64
				for i := 0; i < int(size); i++ {
					want |= uint64(ref.bytes[addr+uint64(i)]) << (8 * i)
				}
				if got := m.ReadWord(addr, size); got != want {
					t.Fatalf("ReadWord(%#x, %d) = %#x, want %#x", addr, size, got, want)
				}
				if !m.WouldBeSilent(addr, size, want) {
					t.Fatalf("WouldBeSilent(%#x, %d, current value) = false", addr, size)
				}
			case 5: // Clone, then mutate the clone only
				c := m.Clone()
				if !c.Equal(m) || !slices.Equal(c.Bases(), m.Bases()) || c.FootprintBytes() != m.FootprintBytes() {
					t.Fatal("clone differs from its original")
				}
				c.StoreByte(addr, ref.bytes[addr]^(arg|1))
				if c.Equal(m) || m.Equal(c) {
					t.Fatalf("clone still equal after a store at %#x", addr)
				}
				if got := m.LoadByte(addr); got != ref.bytes[addr] {
					t.Fatalf("store into a clone changed the original at %#x", addr)
				}
			case 6: // Equal to a rebuild holding only the nonzero bytes
				other := New()
				for a, b := range ref.bytes {
					if b != 0 {
						other.StoreByte(a, b)
					}
				}
				if !m.Equal(other) || !other.Equal(m) {
					t.Fatal("Equal disagrees with the reference image")
				}
				if arg&1 == 1 {
					other.StoreByte(addr, ref.bytes[addr]^0x5a)
					if m.Equal(other) || other.Equal(m) {
						t.Fatalf("Equal missed a differing byte at %#x", addr)
					}
				}
			case 7: // XorWord returns the new value and stores it
				size := uint8(1) << (arg % 4)
				x := uint64(arg)*0x0101010101010101 ^ addr<<3
				var want uint64
				for i := 0; i < int(size); i++ {
					b := ref.bytes[addr+uint64(i)] ^ byte(x>>(8*i))
					ref.store(addr+uint64(i), b)
					want |= uint64(b) << (8 * i)
				}
				if got := m.XorWord(addr, size, x); got != want {
					t.Fatalf("XorWord(%#x, %d, %#x) = %#x, want %#x", addr, size, x, got, want)
				}
			}
			if got, want := m.LoadByte(addr), ref.bytes[addr]; got != want {
				t.Fatalf("LoadByte(%#x) = %#x, want %#x", addr, got, want)
			}
		}
		if got, want := m.Bases(), ref.bases(); !slices.Equal(got, want) {
			t.Fatalf("Bases = %x, want %x", got, want)
		}
		if got, want := m.FootprintBytes(), uint64(len(ref.backed))*ChunkSize; got != want {
			t.Fatalf("FootprintBytes = %d, want %d", got, want)
		}
	})
}
