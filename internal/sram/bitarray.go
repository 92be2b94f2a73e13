package sram

import (
	"fmt"

	"cache8t/internal/rng"
)

// BitArray is a functional, bit-level model of one SRAM mat, including the
// half-select hazard that motivates the whole paper (§2, Figure 2).
//
// In a bit-interleaved array, asserting a write word line selects every
// cell in the row, but the write drivers only hold valid data for the
// addressed word's columns. In a 6T array the half-selected columns are
// biased as in a read and survive. In an 8T array the cells are optimized
// for writing, and that same bias can flip them (Park et al., cited in §2):
// writing a word without RMW puts every half-selected bit in the row at
// risk. This model makes that risk concrete — WriteWordUnsafe disturbs
// half-selected bits with a configurable probability — so tests can show
// that the RMW sequence (and nothing less) keeps the array sound.
type BitArray struct {
	cfg     ArrayConfig
	bits    [][]bool // [row][col]
	latches []bool   // write-back latch row (Figure 2)
	lrow    int      // which row the latches hold, -1 when stale
	r       *rng.Xoshiro256

	// DisturbProb is the per-bit probability that a half-selected 8T cell
	// flips during an unsafe partial-row write. Real silicon is
	// voltage/process dependent; the default (1.0 at model level) makes
	// the hazard deterministic for testing. Set lower to model marginal
	// corner behaviour.
	DisturbProb float64
}

// NewBitArray builds a zeroed bit-level array.
func NewBitArray(cfg ArrayConfig, seed uint64) (*BitArray, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bits := make([][]bool, cfg.Rows)
	backing := make([]bool, cfg.Rows*cfg.Cols)
	for i := range bits {
		bits[i], backing = backing[:cfg.Cols], backing[cfg.Cols:]
	}
	return &BitArray{
		cfg:         cfg,
		bits:        bits,
		latches:     make([]bool, cfg.Cols),
		lrow:        -1,
		r:           rng.New(seed),
		DisturbProb: 1.0,
	}, nil
}

// Config returns the array configuration.
func (a *BitArray) Config() ArrayConfig { return a.cfg }

// WordBits returns the number of bits in one interleaved word.
func (a *BitArray) WordBits() int { return a.cfg.Cols / a.cfg.Interleave }

// Words returns the number of words per row (the interleaving degree).
func (a *BitArray) Words() int { return a.cfg.Interleave }

func (a *BitArray) check(row, word int) error {
	if row < 0 || row >= a.cfg.Rows {
		return fmt.Errorf("sram: row %d out of [0,%d)", row, a.cfg.Rows)
	}
	if word < 0 || word >= a.cfg.Interleave {
		return fmt.Errorf("sram: word %d out of [0,%d)", word, a.cfg.Interleave)
	}
	return nil
}

// columnOf maps (word, bit) to a physical column. Bit interleaving places
// bit i of every word side by side: column = bit*interleave + word. This is
// what spreads a spatially clustered upset across different words (§2).
func (a *BitArray) columnOf(word, bit int) int {
	return bit*a.cfg.Interleave + word
}

// ReadWord performs a read access: precharge, RWL, sense, column mux. The
// 8T read stack is non-destructive for every cell, half-selected or not.
func (a *BitArray) ReadWord(row, word int) ([]bool, error) {
	if err := a.check(row, word); err != nil {
		return nil, err
	}
	out := make([]bool, a.WordBits())
	for bit := range out {
		out[bit] = a.bits[row][a.columnOf(word, bit)]
	}
	return out, nil
}

// ReadRowToLatches performs the RMW read phase: the whole row lands in the
// write-back latches, the column mux stays quiet.
func (a *BitArray) ReadRowToLatches(row int) error {
	if err := a.check(row, 0); err != nil {
		return err
	}
	copy(a.latches, a.bits[row])
	a.lrow = row
	return nil
}

// WriteWordRMW performs the RMW write phase for one word: the write-back
// mux merges data into the latched row image, the write drivers hold valid
// data for EVERY column, and the full row commits. The latches must hold
// this row (ReadRowToLatches first) — the controller sequencing the paper's
// Figure 2 steps enforces exactly that.
func (a *BitArray) WriteWordRMW(row, word int, data []bool) error {
	if err := a.check(row, word); err != nil {
		return err
	}
	if a.lrow != row {
		return fmt.Errorf("sram: RMW write to row %d but latches hold row %d", row, a.lrow)
	}
	if len(data) != a.WordBits() {
		return fmt.Errorf("sram: word width %d, want %d", len(data), a.WordBits())
	}
	for bit, v := range data {
		a.latches[a.columnOf(word, bit)] = v
	}
	copy(a.bits[row], a.latches)
	a.lrow = -1 // latches consumed
	return nil
}

// WriteWordUnsafe drives only the addressed word's columns and asserts the
// write word line anyway — the column-selection violation. Selected bits
// are written correctly; every half-selected bit in the row flips with
// probability DisturbProb when the array needs RMW (interleaved 8T). On
// arrays that don't need RMW (6T, or word-granularity rows), this is a
// perfectly safe direct write.
func (a *BitArray) WriteWordUnsafe(row, word int, data []bool) error {
	if err := a.check(row, word); err != nil {
		return err
	}
	if len(data) != a.WordBits() {
		return fmt.Errorf("sram: word width %d, want %d", len(data), a.WordBits())
	}
	selected := make([]bool, a.cfg.Cols)
	for bit, v := range data {
		col := a.columnOf(word, bit)
		selected[col] = true
		a.bits[row][col] = v
	}
	if !a.cfg.NeedsRMW() {
		return nil
	}
	for col, sel := range selected {
		if sel {
			continue
		}
		if a.r.Bool(a.DisturbProb) {
			a.bits[row][col] = !a.bits[row][col]
		}
	}
	return nil
}

// InjectUpset flips a burst of `width` physically adjacent columns starting
// at col in the given row — a multi-bit soft-error event (particle strike).
// Returns the columns flipped. Combined with columnOf's interleaved layout,
// this shows why bit interleaving turns one spatial burst into single-bit
// errors in several words (§2: "bit-interleaving is used to reduce the
// probability of upsetting two bits in one word").
func (a *BitArray) InjectUpset(row, col, width int) ([]int, error) {
	if err := a.check(row, 0); err != nil {
		return nil, err
	}
	if col < 0 || width < 1 || col+width > a.cfg.Cols {
		return nil, fmt.Errorf("sram: upset [%d,%d) outside row of %d columns", col, col+width, a.cfg.Cols)
	}
	flipped := make([]int, 0, width)
	for c := col; c < col+width; c++ {
		a.bits[row][c] = !a.bits[row][c]
		flipped = append(flipped, c)
	}
	return flipped, nil
}

// WordOfColumn returns which interleaved word a physical column belongs to.
func (a *BitArray) WordOfColumn(col int) int { return col % a.cfg.Interleave }
