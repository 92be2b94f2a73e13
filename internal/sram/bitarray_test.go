package sram

import (
	"testing"

	"cache8t/internal/rng"
)

func smallBitConfig(cell CellKind, interleave int) ArrayConfig {
	return ArrayConfig{Cell: cell, Rows: 8, Cols: 32, Interleave: interleave, Subarrays: 1}
}

func bitsOf(v uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v>>i&1 == 1
	}
	return out
}

func TestBitArrayValidation(t *testing.T) {
	if _, err := NewBitArray(ArrayConfig{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	a, err := NewBitArray(smallBitConfig(EightT, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.WordBits() != 8 || a.Words() != 4 {
		t.Fatalf("geometry: %d bits x %d words", a.WordBits(), a.Words())
	}
	if _, err := a.ReadWord(99, 0); err == nil {
		t.Error("bad row accepted")
	}
	if _, err := a.ReadWord(0, 9); err == nil {
		t.Error("bad word accepted")
	}
	if err := a.WriteWordUnsafe(0, 0, make([]bool, 3)); err == nil {
		t.Error("bad width accepted")
	}
	if _, err := a.InjectUpset(0, 30, 4); err == nil {
		t.Error("out-of-row upset accepted")
	}
}

func TestRMWWriteIsExact(t *testing.T) {
	a, _ := NewBitArray(smallBitConfig(EightT, 4), 1)
	// Populate row 2 with distinct words via the safe sequence.
	for w := 0; w < 4; w++ {
		if err := a.ReadRowToLatches(2); err != nil {
			t.Fatal(err)
		}
		if err := a.WriteWordRMW(2, w, bitsOf(uint64(0x11*(w+1)), 8)); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 4; w++ {
		got, err := a.ReadWord(2, w)
		if err != nil {
			t.Fatal(err)
		}
		want := bitsOf(uint64(0x11*(w+1)), 8)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("word %d bit %d corrupted", w, i)
			}
		}
	}
}

func TestRMWRequiresMatchingLatches(t *testing.T) {
	a, _ := NewBitArray(smallBitConfig(EightT, 4), 1)
	if err := a.WriteWordRMW(1, 0, make([]bool, 8)); err == nil {
		t.Fatal("RMW write without latched row accepted")
	}
	if err := a.ReadRowToLatches(3); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteWordRMW(1, 0, make([]bool, 8)); err == nil {
		t.Fatal("RMW write against stale latches accepted")
	}
	// Latches are consumed by a commit: a second write needs a re-read.
	if err := a.ReadRowToLatches(1); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteWordRMW(1, 0, make([]bool, 8)); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteWordRMW(1, 1, make([]bool, 8)); err == nil {
		t.Fatal("second RMW write reused consumed latches")
	}
}

func TestUnsafeWriteCorruptsHalfSelectedCells(t *testing.T) {
	// The paper's premise, demonstrated: an interleaved 8T array loses
	// half-selected data on a partial-row write without RMW.
	a, _ := NewBitArray(smallBitConfig(EightT, 4), 1)
	if err := a.ReadRowToLatches(0); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteWordRMW(0, 1, bitsOf(0xff, 8)); err != nil {
		t.Fatal(err)
	}
	// Unsafe write to word 0 of the same row.
	if err := a.WriteWordUnsafe(0, 0, bitsOf(0xaa, 8)); err != nil {
		t.Fatal(err)
	}
	// Word 0 (selected) is exact.
	got, _ := a.ReadWord(0, 0)
	for i, want := range bitsOf(0xaa, 8) {
		if got[i] != want {
			t.Fatalf("selected word corrupted at bit %d", i)
		}
	}
	// Word 1 (half-selected, previously 0xff) is destroyed with
	// DisturbProb = 1: every bit flipped.
	got, _ = a.ReadWord(0, 1)
	corrupted := 0
	for i, wasSet := range bitsOf(0xff, 8) {
		if got[i] != wasSet {
			corrupted++
		}
		_ = i
	}
	if corrupted != 8 {
		t.Fatalf("half-selected word lost %d/8 bits, expected all at DisturbProb=1", corrupted)
	}
}

func TestUnsafeWriteIsSafeWithoutInterleavingOr6T(t *testing.T) {
	// Chang et al.'s organization: one word per row, no half-selected
	// cells, direct writes are fine.
	word, _ := NewBitArray(smallBitConfig(EightT, 1), 1)
	if err := word.WriteWordUnsafe(0, 0, bitsOf(0x5aa5_5aa5, 32)); err != nil {
		t.Fatal(err)
	}
	got, _ := word.ReadWord(0, 0)
	for i, want := range bitsOf(0x5aa5_5aa5, 32) {
		if got[i] != want {
			t.Fatalf("non-interleaved direct write corrupted bit %d", i)
		}
	}
	// 6T arrays tolerate the half-select bias even when interleaved.
	six, _ := NewBitArray(smallBitConfig(SixT, 4), 1)
	if err := six.ReadRowToLatches(0); err != nil {
		t.Fatal(err)
	}
	if err := six.WriteWordRMW(0, 1, bitsOf(0xff, 8)); err != nil {
		t.Fatal(err)
	}
	if err := six.WriteWordUnsafe(0, 0, bitsOf(0xaa, 8)); err != nil {
		t.Fatal(err)
	}
	got, _ = six.ReadWord(0, 1)
	for i, want := range bitsOf(0xff, 8) {
		if got[i] != want {
			t.Fatalf("6T half-selected word corrupted bit %d", i)
		}
	}
}

func TestRMWSequencePropertyAgainstReference(t *testing.T) {
	// Random word writes through the full RMW sequence match a plain
	// word-array reference exactly, for every interleaving degree.
	for _, il := range []int{1, 2, 4, 8} {
		a, _ := NewBitArray(smallBitConfig(EightT, il), uint64(il))
		wordBits := a.WordBits()
		ref := make([][]uint64, a.Config().Rows)
		for i := range ref {
			ref[i] = make([]uint64, il)
		}
		r := rng.New(uint64(100 + il))
		for step := 0; step < 2000; step++ {
			row := r.Intn(a.Config().Rows)
			word := r.Intn(il)
			if r.Bool(0.5) {
				v := r.Uint64() & (1<<wordBits - 1)
				if err := a.ReadRowToLatches(row); err != nil {
					t.Fatal(err)
				}
				if err := a.WriteWordRMW(row, word, bitsOf(v, wordBits)); err != nil {
					t.Fatal(err)
				}
				ref[row][word] = v
			} else {
				got, err := a.ReadWord(row, word)
				if err != nil {
					t.Fatal(err)
				}
				want := bitsOf(ref[row][word], wordBits)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("il=%d step %d: row %d word %d bit %d mismatch", il, step, row, word, i)
					}
				}
			}
		}
	}
}

func TestInterleavingSpreadsBurstAcrossWords(t *testing.T) {
	// A 4-bit adjacent burst in a 4-way interleaved row flips exactly one
	// bit in each of the four words (§2's soft-error argument).
	a, _ := NewBitArray(smallBitConfig(EightT, 4), 1)
	flipped, err := a.InjectUpset(0, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	wordHits := map[int]int{}
	for _, col := range flipped {
		wordHits[a.WordOfColumn(col)]++
	}
	if len(wordHits) != 4 {
		t.Fatalf("burst hit %d words, want 4", len(wordHits))
	}
	for w, n := range wordHits {
		if n != 1 {
			t.Fatalf("word %d took %d flips, want 1", w, n)
		}
	}
	// The same burst in a non-interleaved row lands entirely in one word.
	b, _ := NewBitArray(smallBitConfig(EightT, 1), 1)
	flipped, err = b.InjectUpset(0, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range flipped {
		if b.WordOfColumn(col) != 0 {
			t.Fatal("non-interleaved columns mapped to several words")
		}
	}
}
