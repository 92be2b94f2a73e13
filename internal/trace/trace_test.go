package trace

import (
	"testing"
)

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatalf("Kind strings: %s %s", Read, Write)
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Fatalf("invalid kind string: %s", got)
	}
}

func TestAccessInstructions(t *testing.T) {
	a := Access{Gap: 4}
	if a.Instructions() != 5 {
		t.Fatalf("Instructions = %d, want 5", a.Instructions())
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Kind: Write, Addr: 0x1f40, Size: 4, Data: 0xbeef}
	if got := a.String(); got != "W 0x1f40+4 =0xbeef" {
		t.Fatalf("String = %q", got)
	}
}

func TestSliceStream(t *testing.T) {
	as := []Access{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	s := FromSlice(as)
	for i, want := range as {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("access %d = %v ok=%v", i, got, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream not exhausted")
	}
	s.Reset()
	if a, ok := s.Next(); !ok || a.Addr != 1 {
		t.Fatal("Reset did not rewind")
	}
}

func TestLimit(t *testing.T) {
	s := NewLimit(FromSlice([]Access{{}, {}, {}, {}}), 2)
	if got := len(Collect(s, 0)); got != 2 {
		t.Fatalf("Limit yielded %d", got)
	}
	// Limit larger than the stream just drains it.
	s = NewLimit(FromSlice([]Access{{}}), 10)
	if got := len(Collect(s, 0)); got != 1 {
		t.Fatalf("Limit over short stream yielded %d", got)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted limit stream yielded an access")
	}
}

func TestCollectMax(t *testing.T) {
	s := FromSlice(make([]Access, 10))
	if got := len(Collect(s, 3)); got != 3 {
		t.Fatalf("Collect(3) = %d", got)
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	f := Func(func() (Access, bool) {
		if n >= 2 {
			return Access{}, false
		}
		n++
		return Access{Addr: uint64(n)}, true
	})
	if got := len(Collect(f, 0)); got != 2 {
		t.Fatalf("Func stream yielded %d", got)
	}
}

func TestStats(t *testing.T) {
	var st Stats
	st.Observe(Access{Kind: Read, Gap: 3})  // 4 instructions
	st.Observe(Access{Kind: Write, Gap: 0}) // 1 instruction
	st.Observe(Access{Kind: Read, Gap: 4})  // 5 instructions
	if st.Reads != 2 || st.Writes != 1 || st.Instructions != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Accesses() != 3 {
		t.Fatalf("Accesses = %d", st.Accesses())
	}
	if got := st.ReadFrac(); got != 0.2 {
		t.Fatalf("ReadFrac = %v", got)
	}
	if got := st.WriteFrac(); got != 0.1 {
		t.Fatalf("WriteFrac = %v", got)
	}
}

func TestStatsEmptyFracs(t *testing.T) {
	var st Stats
	if st.ReadFrac() != 0 || st.WriteFrac() != 0 {
		t.Fatal("empty stats fractions nonzero")
	}
}
