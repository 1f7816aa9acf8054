package dataframe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestDictEncodingBuild pins the encoding of a small column with NULLs: sorted
// domain, rank codes, narrow mirror, validity bitmap and null count.
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
	wantCodes := []uint32{2, 0, 0, 2, 1, 0} // row 2 is NULL: unspecified, builder leaves 0
	for i, w := range wantCodes {
		if i == 2 {
			continue
		}
		if enc.Codes()[i] != w {
			t.Errorf("Codes()[%d] = %d, want %d", i, enc.Codes()[i], w)
		}
		if enc.Codes8() == nil || uint32(enc.Codes8()[i]) != w {
			t.Errorf("Codes8()[%d] mismatch", i)
		}
	}
	if enc.Codes16() != nil {
		t.Error("Codes16() non-nil alongside Codes8()")
	}
	if want := uint64(0b111011); enc.ValidBits()[0] != want {
		t.Errorf("ValidBits()[0] = %b, want %b", enc.ValidBits()[0], want)
	}
	for _, tc := range []struct {
		s    string
		code uint32
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

// TestDictEncodingWidths checks the narrow-mirror selection at the uint8 and
// uint16 boundaries and the cardinality cap.
func TestDictEncodingWidths(t *testing.T) {
	mk := func(card int) *Column {
		vals := make([]string, card)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%06d", i)
		}
		return NewStringColumn("s", vals, nil)
	}
	if enc := mk(256).Dict(); enc == nil || enc.Codes8() == nil || enc.Codes16() != nil {
		t.Error("card 256: want a uint8 mirror")
	}
	if enc := mk(257).Dict(); enc == nil || enc.Codes8() != nil || enc.Codes16() == nil {
		t.Error("card 257: want a uint16 mirror")
	}
	if enc := mk(MaxDictCardinality).Dict(); enc == nil || enc.Cardinality() != MaxDictCardinality {
		t.Error("card at the cap: want an encoding")
	}
	if enc := mk(MaxDictCardinality + 1).Dict(); enc != nil {
		t.Error("card above the cap: want nil (generic fallback)")
	}
}

// TestDictEncodingEdges covers the degenerate shapes the differential sweep
// leans on: all-NULL (empty dictionary), single-value, and empty columns.
func TestDictEncodingEdges(t *testing.T) {
	allNull := NewStringColumn("s", []string{"x", "y"}, []bool{false, false})
	if enc := allNull.Dict(); enc == nil || enc.Cardinality() != 0 || enc.NullCount() != 2 {
		t.Errorf("all-NULL: enc = %+v, want empty dictionary with 2 nulls", enc)
	}
	single := NewStringColumn("s", []string{"k", "k", "k"}, nil)
	if enc := single.Dict(); enc == nil || enc.Cardinality() != 1 || enc.Codes8()[2] != 0 {
		t.Error("single-value: want cardinality 1, code 0 everywhere")
	}
	empty := NewStringColumn("s", nil, nil)
	if enc := empty.Dict(); enc == nil || enc.Cardinality() != 0 || enc.NumRows() != 0 {
		t.Error("empty column: want an empty encoding")
	}
	if enc := NewIntColumn("i", []int64{1}, nil).Dict(); enc != nil {
		t.Error("non-string column: Dict() must be nil")
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
	if want := []uint8{0, 1, 2, 0, 0}; !slices.Equal(second.Codes8(), want) {
		t.Errorf("extended codes = %v, want %v", second.Codes8(), want)
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

// TestEncodeDicts checks the eager table-level pass counts encodable columns
// only.
func TestEncodeDicts(t *testing.T) {
	big := make([]string, MaxDictCardinality+1)
	for i := range big {
		big[i] = fmt.Sprintf("u%05d", i)
	}
	tbl, err := NewTable(
		NewStringColumn("lo", append([]string{"a", "a"}, big[:MaxDictCardinality-1]...), nil),
		NewStringColumn("hi", big, nil),
		NewIntColumn("n", make([]int64, MaxDictCardinality+1), nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.EncodeDicts(); n != 1 {
		t.Errorf("EncodeDicts() = %d, want 1 (lo encodable, hi over cap, n non-string)", n)
	}
}

// dictTestTable builds a grouping table mixing cardinalities, NULL densities
// and kinds so every group-build path has work to do.
func dictTestTable(tb testing.TB, rows int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	s1 := make([]string, rows) // low cardinality, some NULLs
	v1 := make([]bool, rows)
	s2 := make([]string, rows) // higher cardinality
	s3 := make([]string, rows) // single value
	iv := make([]int64, rows)
	for i := 0; i < rows; i++ {
		s1[i] = fmt.Sprintf("c%d", rng.Intn(5))
		v1[i] = rng.Intn(10) != 0
		s2[i] = fmt.Sprintf("g%03d", rng.Intn(40))
		s3[i] = "only"
		iv[i] = int64(rng.Intn(7))
	}
	tbl, err := NewTable(
		NewStringColumn("s1", s1, v1),
		NewStringColumn("s2", s2, nil),
		NewStringColumn("s3", s3, nil),
		NewIntColumn("iv", iv, nil),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestGroupIndexDictEquivalence is the group-build differential: for every key
// shape the dictionary paths serve (and the mixed shapes the composite-key
// path serves), the index must be IDENTICAL — group ids, sizes,
// representatives and key bytes — to the test-local first-seen grouping.
func TestGroupIndexDictEquivalence(t *testing.T) {
	tbl := dictTestTable(t, 3000, 11)
	keySets := [][]string{
		{"s1"},             // single string, NULL group
		{"s2"},             // single string, wider domain
		{"s3"},             // single value
		{"s1", "s2"},       // combo: dense code space
		{"s2", "s1", "s3"}, // combo: order matters
		{"s1", "iv"},       // mixed kinds: composite-key path
		{"iv", "s1", "s2"}, // mixed, string-led radix would differ
		{"s1", "s1"},       // repeated key column
	}
	for _, keys := range keySets {
		got, err := tbl.BuildGroupIndex(keys...)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupIndexRef(t, fmt.Sprintf("%v", keys), tbl, got, keys...)
	}
}

// TestGroupIndexComboOverCap checks an all-string key-set falls back cleanly
// to the composite-key path when one column exceeds the dictionary cap, and
// still matches the reference grouping.
func TestGroupIndexComboOverCap(t *testing.T) {
	rows := MaxDictCardinality + 100
	big := make([]string, rows)
	small := make([]string, rows)
	for i := range big {
		big[i] = fmt.Sprintf("b%06d", i) // distinct per row: over the cap
		small[i] = fmt.Sprintf("s%d", i%3)
	}
	tbl, err := NewTable(
		NewStringColumn("big", big, nil),
		NewStringColumn("small", small, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.BuildGroupIndex("small", "big")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumGroups() != rows {
		t.Fatalf("groups = %d, want %d", got.NumGroups(), rows)
	}
	checkGroupIndexRef(t, "[small big]", tbl, got, "small", "big")
}
