package dataframe

import (
	"fmt"
	"slices"
	"testing"
)

// TestDictEncodingBuild pins the encoding of a small column with NULLs:
// first-seen codes, the sorted order beside them, the validity bitmap, and a
// DistinctStrings that still reads in value order.
func TestDictEncodingBuild(t *testing.T) {
	c := NewStringColumn("s",
		[]string{"pear", "apple", "", "pear", "fig", "apple"},
		[]bool{true, true, false, true, true, true})
	enc := c.Dict()
	if enc == nil {
		t.Fatal("Dict() = nil for an encodable column")
	}
	if want := []string{"pear", "apple", "fig"}; !slices.Equal(enc.values, want) {
		t.Fatalf("values = %v, want first-seen %v", enc.values, want)
	}
	if want := []uint16{1, 2, 0}; !slices.Equal(enc.sorted, want) {
		t.Fatalf("sorted = %v, want %v", enc.sorted, want)
	}
	if want := []uint16{0, 1, 0, 0, 2, 1}; !slices.Equal(enc.Codes(), want) { // row 2 is NULL: code 0
		t.Errorf("Codes() = %v, want %v", enc.Codes(), want)
	}
	if want := uint64(0b111011); len(enc.ValidBits()) != 1 || enc.ValidBits()[0] != want {
		t.Errorf("ValidBits() = %b, want [%b]", enc.ValidBits(), want)
	}
	for _, tc := range []struct {
		s    string
		code uint16
		ok   bool
	}{{"apple", 1, true}, {"fig", 2, true}, {"pear", 0, true}, {"plum", 0, false}, {"", 0, false}, {"aa", 0, false}} {
		code, ok := enc.CodeOf(tc.s)
		if code != tc.code || ok != tc.ok {
			t.Errorf("CodeOf(%q) = %d,%v want %d,%v", tc.s, code, ok, tc.code, tc.ok)
		}
	}
	if got, want := c.DistinctStrings(0), []string{"apple", "fig", "pear"}; !slices.Equal(got, want) {
		t.Errorf("DistinctStrings = %v, want %v", got, want)
	}
	if again := c.Dict(); again != enc {
		t.Error("second Dict() rebuilt the encoding")
	}
}

// TestDictEncodingEdges covers the degenerate shapes the differential sweep
// leans on: all-NULL (empty dictionary), single-value, and empty columns, plus
// a domain exactly at the cardinality cap and one past it.
func TestDictEncodingEdges(t *testing.T) {
	allNull := NewStringColumn("s", []string{"x", "y"}, []bool{false, false})
	if enc := allNull.Dict(); enc == nil || len(enc.values) != 0 || len(enc.codes) != 2 || enc.validBits[0] != 0 {
		t.Errorf("all-NULL: enc = %+v, want empty dictionary over 2 NULL rows", enc)
	}
	single := NewStringColumn("s", []string{"k", "k", "k"}, nil)
	if enc := single.Dict(); enc == nil || len(enc.values) != 1 || enc.Codes()[2] != 0 {
		t.Error("single-value: want cardinality 1, code 0 everywhere")
	}
	empty := NewStringColumn("s", nil, nil)
	if enc := empty.Dict(); enc == nil || len(enc.values) != 0 || len(enc.codes) != 0 {
		t.Error("empty column: want an empty encoding")
	}
	if enc := NewIntColumn("i", []int64{1}, nil).Dict(); enc != nil {
		t.Error("non-string column: Dict() must be nil")
	}
	mk := func(card int) *Column {
		vals := make([]string, card)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%06d", i)
		}
		return NewStringColumn("s", vals, nil)
	}
	if enc := mk(MaxDictCardinality).Dict(); enc == nil || len(enc.values) != MaxDictCardinality ||
		enc.Codes()[MaxDictCardinality-1] != MaxDictCardinality-1 {
		t.Error("card at the cap: want an encoding with the top code in range")
	}
	if enc := mk(MaxDictCardinality + 1).Dict(); enc != nil {
		t.Error("card above the cap: want nil (generic fallback)")
	}
}

// TestDictExtendOnAppend checks the append contract: every append below the
// cap — values already in the domain, values after the current maximum,
// values inside the domain, NULLs — extends the built encoding in place (same
// pointer), new values taking the next codes.
func TestDictExtendOnAppend(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "b"}, nil)
	first := c.Dict()
	if first == nil || len(first.values) != 2 {
		t.Fatal("seed encoding missing")
	}
	c.AppendStr("c") // after the max
	c.AppendNull()
	c.AppendStr("a")  // in the domain: reuses its code
	c.AppendStr("ab") // inside the domain: takes the next code all the same
	if c.Dict() != first {
		t.Fatal("appends below the cap must extend the encoding in place")
	}
	if want := []string{"a", "b", "c", "ab"}; !slices.Equal(first.values, want) {
		t.Errorf("values = %v, want %v", first.values, want)
	}
	if want := []uint16{0, 3, 1, 2}; !slices.Equal(first.sorted, want) {
		t.Errorf("sorted = %v, want %v", first.sorted, want)
	}
	if want := []uint16{0, 1, 2, 0, 0, 3}; !slices.Equal(first.Codes(), want) {
		t.Errorf("codes = %v, want %v", first.Codes(), want)
	}
	if want := uint64(0b110111); first.ValidBits()[0] != want {
		t.Errorf("valid bits = %b, want %b", first.ValidBits()[0], want)
	}
}
