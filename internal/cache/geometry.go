package cache

import "fmt"

// Geometry describes a set-associative cache shape and provides address
// decomposition. The paper's baseline is 64 KB, 4-way, 32 B blocks (§5.1);
// Figures 10 and 11 vary block size and capacity.
type Geometry struct {
	SizeBytes  int // total data capacity
	Ways       int // associativity
	BlockBytes int // line size
	Sets       int // derived: SizeBytes / (Ways * BlockBytes)

	blockShift uint
	tagShift   uint // blockShift + log2(Sets)
	setMask    uint64
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

func log2(x int) uint {
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// NewGeometry validates and derives a cache geometry.
func NewGeometry(sizeBytes, ways, blockBytes int) (Geometry, error) {
	switch {
	case !isPow2(sizeBytes):
		return Geometry{}, fmt.Errorf("cache: size %d is not a power of two", sizeBytes)
	case !isPow2(ways):
		return Geometry{}, fmt.Errorf("cache: ways %d is not a power of two", ways)
	case !isPow2(blockBytes) || blockBytes < 8:
		return Geometry{}, fmt.Errorf("cache: block size %d must be a power of two >= 8", blockBytes)
	case sizeBytes < ways*blockBytes:
		return Geometry{}, fmt.Errorf("cache: size %d smaller than one set (%d ways x %d B)", sizeBytes, ways, blockBytes)
	}
	sets := sizeBytes / (ways * blockBytes)
	return Geometry{
		SizeBytes:  sizeBytes,
		Ways:       ways,
		BlockBytes: blockBytes,
		Sets:       sets,
		blockShift: log2(blockBytes),
		tagShift:   log2(blockBytes) + log2(sets),
		setMask:    uint64(sets - 1),
	}, nil
}

// MustGeometry is NewGeometry that panics on invalid input; for tests and
// package-level defaults.
func MustGeometry(sizeBytes, ways, blockBytes int) Geometry {
	g, err := NewGeometry(sizeBytes, ways, blockBytes)
	if err != nil {
		panic(err)
	}
	return g
}

// SetIndex returns the set an address maps to.
func (g Geometry) SetIndex(addr uint64) int {
	return int((addr >> g.blockShift) & g.setMask)
}

// Tag returns the tag bits of an address.
func (g Geometry) Tag(addr uint64) uint64 {
	return addr >> g.tagShift
}

// BlockBase returns the address of the first byte of addr's block.
func (g Geometry) BlockBase(addr uint64) uint64 {
	return addr &^ (uint64(g.BlockBytes) - 1)
}

// BlockOffset returns addr's offset within its block.
func (g Geometry) BlockOffset(addr uint64) int {
	return int(addr & (uint64(g.BlockBytes) - 1))
}

// SetBytes returns the size of one set's data (the Set-Buffer capacity,
// paper §5.4: 128 B for the 64 KB/4-way/32 B baseline).
func (g Geometry) SetBytes() int { return g.Ways * g.BlockBytes }

// TagBits returns the number of tag bits per block for a physical address of
// paBits bits (paper §5.4 assumes 48).
func (g Geometry) TagBits(paBits int) int {
	bits := paBits - int(g.tagShift)
	if bits < 0 {
		return 0
	}
	return bits
}

// TagBufferBits returns the storage cost of the Tag-Buffer in bits: the set
// index plus one tag per way, plus the Dirty bit and a valid bit (paper §5.4:
// "less than 150 bits" for the baseline at 48-bit PA).
func (g Geometry) TagBufferBits(paBits int) int {
	return int(log2(g.Sets)) + g.Ways*g.TagBits(paBits) + 2
}

// String renders like "64KB/4way/32B (512 sets)".
func (g Geometry) String() string {
	return fmt.Sprintf("%dKB/%dway/%dB (%d sets)", g.SizeBytes/1024, g.Ways, g.BlockBytes, g.Sets)
}
