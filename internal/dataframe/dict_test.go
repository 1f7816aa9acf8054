package dataframe

import (
	"fmt"
	"slices"
	"testing"
)

// TestDictEncodingBuild pins the encoding of a small column with NULLs: sorted
// domain, rank codes, validity bitmap and null count.
func TestDictEncodingBuild(t *testing.T) {
	c := NewStringColumn("s",
		[]string{"pear", "apple", "", "pear", "fig", "apple"},
		[]bool{true, true, false, true, true, true})
	enc := c.Dict()
	if enc == nil {
		t.Fatal("Dict() = nil for an encodable column")
	}
	wantVals := []string{"apple", "fig", "pear"}
	if got := enc.Values(); len(got) != 3 || got[0] != "apple" || got[1] != "fig" || got[2] != "pear" {
		t.Fatalf("Values() = %v, want %v", got, wantVals)
	}
	if enc.Cardinality() != 3 || enc.NullCount() != 1 || enc.NumRows() != 6 {
		t.Fatalf("card/nulls/rows = %d/%d/%d, want 3/1/6", enc.Cardinality(), enc.NullCount(), enc.NumRows())
	}
	wantCodes := []uint16{2, 0, 0, 2, 1, 0} // row 2 is NULL: unspecified, builder leaves 0
	for i, w := range wantCodes {
		if i == 2 {
			continue
		}
		if enc.Codes()[i] != w {
			t.Errorf("Codes()[%d] = %d, want %d", i, enc.Codes()[i], w)
		}
	}
	if want := uint64(0b111011); enc.ValidBits()[0] != want {
		t.Errorf("ValidBits()[0] = %b, want %b", enc.ValidBits()[0], want)
	}
	for _, tc := range []struct {
		s    string
		code uint16
		ok   bool
	}{{"apple", 0, true}, {"fig", 1, true}, {"pear", 2, true}, {"plum", 0, false}, {"", 0, false}} {
		code, ok := enc.CodeOf(tc.s)
		if code != tc.code || ok != tc.ok {
			t.Errorf("CodeOf(%q) = %d,%v want %d,%v", tc.s, code, ok, tc.code, tc.ok)
		}
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
	if enc := allNull.Dict(); enc == nil || enc.Cardinality() != 0 || enc.NullCount() != 2 {
		t.Errorf("all-NULL: enc = %+v, want empty dictionary with 2 nulls", enc)
	}
	single := NewStringColumn("s", []string{"k", "k", "k"}, nil)
	if enc := single.Dict(); enc == nil || enc.Cardinality() != 1 || enc.Codes()[2] != 0 {
		t.Error("single-value: want cardinality 1, code 0 everywhere")
	}
	empty := NewStringColumn("s", nil, nil)
	if enc := empty.Dict(); enc == nil || enc.Cardinality() != 0 || enc.NumRows() != 0 {
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
	if enc := mk(MaxDictCardinality).Dict(); enc == nil || enc.Cardinality() != MaxDictCardinality ||
		enc.Codes()[MaxDictCardinality-1] != MaxDictCardinality-1 {
		t.Error("card at the cap: want an encoding with the top code in range")
	}
	if enc := mk(MaxDictCardinality + 1).Dict(); enc != nil {
		t.Error("card above the cap: want nil (generic fallback)")
	}
}

// TestDictExtendOnAppend checks the append contract (PR 9): appends that
// keep existing codes stable — values already in the domain, values sorting
// after the current maximum, NULLs — extend the built encoding in place
// (same pointer), while a mid-domain value swaps in a fresh holder for a
// full re-encode.
func TestDictExtendOnAppend(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "b"}, nil)
	first := c.Dict()
	if first == nil || first.Cardinality() != 2 {
		t.Fatal("seed encoding missing")
	}
	c.AppendStr("c") // sorts after the max: joins the domain end
	c.AppendNull()
	c.AppendStr("a") // in-domain: reuses its code
	second := c.Dict()
	if second != first {
		t.Fatal("stable appends must extend the encoding in place")
	}
	if second.NumRows() != 5 || second.Cardinality() != 3 || second.NullCount() != 1 {
		t.Errorf("extended encoding = %d rows / %d card / %d nulls, want 5/3/1",
			second.NumRows(), second.Cardinality(), second.NullCount())
	}
	if want := []uint16{0, 1, 2, 0, 0}; !slices.Equal(second.Codes(), want) {
		t.Errorf("extended codes = %v, want %v", second.Codes(), want)
	}
	c.AppendStr("ab") // mid-domain: would shift codes of "b" and "c"
	third := c.Dict()
	if third == first {
		t.Fatal("mid-domain append must trigger a full re-encode")
	}
	if third.NumRows() != 6 || third.Cardinality() != 4 || third.NullCount() != 1 {
		t.Errorf("rebuilt encoding = %d rows / %d card / %d nulls, want 6/4/1",
			third.NumRows(), third.Cardinality(), third.NullCount())
	}
}
