// Package mem implements a sparse byte-addressable shadow memory.
//
// The simulator needs a memory image for two reasons: the cache model holds
// real line data (so write-backs and fills move actual bytes), and silent
// write detection (paper §3, Figure 5) must compare the value being stored
// with the value already present. Memory is sparse — SPEC-like traces touch
// tiny, scattered fractions of a 48-bit space — so storage is a page table
// of fixed-size chunks, with unbacked bytes reading as zero.
package mem

import (
	"encoding/binary"
	"slices"
)

// ChunkSize is the granularity of backing allocation, in bytes.
const ChunkSize = 64

const (
	// pageShift sizes a page table entry: 4 KiB, 64 chunks.
	pageShift     = 12
	chunksPerPage = 1 << pageShift / ChunkSize
	// memoBits sizes the page memo: 64 direct-mapped slots.
	memoBits = 6
)

// page holds the chunks of one 4 KiB page; a nil chunk is unbacked.
type page [chunksPerPage]*[ChunkSize]byte

// absent stands in for every page that does not exist: all its chunks are
// nil, so reads through it see zeros. It is shared by every Memory and
// never written, since a lookup that may write creates the real page.
var absent page

// memoSlot is one page memo entry; a nil page marks an empty slot.
type memoSlot struct {
	num uint64
	p   *page
}

// Memory is a sparse byte store. The zero value is not usable; call New.
//
// Chunks are allocated only on write, one at a time, so the backed set (and
// everything derived from it: Bases, FootprintBytes, checkpoints) is the
// same as for a flat map of chunks. Lookups go through a map from page
// number to page, fronted by a memo of recent lookups hashed by page number
// into direct-mapped slots. The memo remembers absent pages too, as the
// shared all-nil page, so reads of never-written memory (fills from a
// read-only region) skip the map as well. Even reads update the memo, so a
// Memory is not safe for concurrent readers.
type Memory struct {
	pages  map[uint64]*page
	chunks int // backed chunks

	memo [1 << memoBits]memoSlot
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// memoIndex hashes a page number to its memo slot (Fibonacci hashing), so
// regions whose bases share their low bits still spread over the slots.
func memoIndex(num uint64) uint64 {
	return num * 0x9e3779b97f4a7c15 >> (64 - memoBits)
}

// pageFor returns the page holding addr, creating it when create is set
// (otherwise the shared absent page if it does not exist).
func (m *Memory) pageFor(addr uint64, create bool) *page {
	num := addr >> pageShift
	s := &m.memo[memoIndex(num)]
	if s.p != nil && s.num == num && !(create && s.p == &absent) {
		return s.p
	}
	p := m.pages[num]
	if p == nil {
		if !create {
			s.num, s.p = num, &absent
			return &absent
		}
		p = new(page)
		m.pages[num] = p
	}
	s.num, s.p = num, p
	return p
}

func (m *Memory) chunkFor(addr uint64, create bool) (*[ChunkSize]byte, uint64) {
	off := addr & (ChunkSize - 1)
	p := m.pageFor(addr, create)
	slot := &p[addr/ChunkSize%chunksPerPage]
	if *slot == nil && create {
		*slot = new([ChunkSize]byte)
		m.chunks++
	}
	return *slot, off
}

// LoadByte returns the byte at addr (zero if unbacked).
func (m *Memory) LoadByte(addr uint64) byte {
	c, off := m.chunkFor(addr, false)
	if c == nil {
		return 0
	}
	return c[off]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	c, off := m.chunkFor(addr, true)
	c[off] = b
}

// Read copies len(dst) bytes starting at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		c, off := m.chunkFor(addr, false)
		n := min(ChunkSize-int(off), len(dst))
		if c == nil {
			clear(dst[:n])
		} else {
			copy(dst, c[off:int(off)+n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write copies src into memory starting at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		c, off := m.chunkFor(addr, true)
		n := copy(c[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadWord returns size bytes at addr as a little-endian integer.
// size must be 1, 2, 4, or 8.
func (m *Memory) ReadWord(addr uint64, size uint8) uint64 {
	if off := addr & (ChunkSize - 1); off <= ChunkSize-8 && size <= 8 {
		// The eight bytes at addr lie in one chunk: one lookup, one load.
		c, _ := m.chunkFor(addr, false)
		if c == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(c[off:]) & WordMask(size)
	}
	var buf [8]byte
	m.Read(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteWord stores the low size bytes of data at addr, little-endian.
func (m *Memory) WriteWord(addr uint64, size uint8, data uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	m.Write(addr, buf[:size])
}

// XorWord xors the low size bytes of x into the size bytes at addr and
// returns their new value: a read-modify-write through one chunk lookup
// when the eight bytes at addr lie in one chunk.
func (m *Memory) XorWord(addr uint64, size uint8, x uint64) uint64 {
	x &= WordMask(size)
	if off := addr & (ChunkSize - 1); off <= ChunkSize-8 && size <= 8 {
		c, _ := m.chunkFor(addr, true)
		w := binary.LittleEndian.Uint64(c[off:]) ^ x
		binary.LittleEndian.PutUint64(c[off:], w)
		return w & WordMask(size)
	}
	w := m.ReadWord(addr, size) ^ x
	m.WriteWord(addr, size, w)
	return w
}

// WouldBeSilent reports whether writing data (size bytes) at addr would leave
// memory unchanged — the definition of a silent store (Lepak & Lipasti).
func (m *Memory) WouldBeSilent(addr uint64, size uint8, data uint64) bool {
	return m.ReadWord(addr, size) == data&WordMask(size)
}

// WordMask selects the low size bytes of a little-endian word: the bytes a
// size-byte access reads or writes.
func WordMask(size uint8) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// Bases returns the base address of every backed chunk in ascending order.
// Checkpoint serialization needs a deterministic iteration order; map range
// order would make snapshot bytes differ between identical states.
func (m *Memory) Bases() []uint64 {
	nums := make([]uint64, 0, len(m.pages))
	for num := range m.pages {
		nums = append(nums, num)
	}
	slices.Sort(nums)
	bases := make([]uint64, 0, m.chunks)
	for _, num := range nums {
		for i, c := range m.pages[num] {
			if c != nil {
				bases = append(bases, num<<pageShift|uint64(i)*ChunkSize)
			}
		}
	}
	return bases
}

// FootprintBytes returns the number of backed bytes.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(m.chunks) * ChunkSize
}

// Clone returns a deep copy of the memory image. Used by correctness property
// tests to run two controllers from identical initial state.
func (m *Memory) Clone() *Memory {
	out := New()
	out.chunks = m.chunks
	for num, p := range m.pages {
		dup := new(page)
		for i, c := range p {
			if c != nil {
				cc := *c
				dup[i] = &cc
			}
		}
		out.pages[num] = dup
	}
	return out
}

// Equal reports whether two memories hold the same image (unbacked bytes
// compare as zero, so a chunk of zeros equals an absent chunk).
func (m *Memory) Equal(other *Memory) bool {
	return m.coveredBy(other) && other.coveredBy(m)
}

func (m *Memory) coveredBy(other *Memory) bool {
	for num, p := range m.pages {
		op := other.pages[num]
		for i, c := range p {
			if c == nil {
				continue
			}
			var oc *[ChunkSize]byte
			if op != nil {
				oc = op[i]
			}
			if oc == nil {
				if *c != ([ChunkSize]byte{}) {
					return false
				}
				continue
			}
			if *c != *oc {
				return false
			}
		}
	}
	return true
}
