package dataframe

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(
		NewIntColumn("id", []int64{1, 2, 3, 4}, nil),
		NewFloatColumn("x", []float64{1.5, 2.5, 3.5, 4.5}, []bool{true, true, false, true}),
		NewStringColumn("cat", []string{"a", "b", "a", "c"}, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableRejectsDuplicatesAndMismatch(t *testing.T) {
	_, err := NewTable(
		NewIntColumn("a", []int64{1}, nil),
		NewIntColumn("a", []int64{2}, nil),
	)
	if err == nil {
		t.Fatal("duplicate names should fail")
	}
	_, err = NewTable(
		NewIntColumn("a", []int64{1}, nil),
		NewIntColumn("b", []int64{1, 2}, nil),
	)
	if err == nil {
		t.Fatal("length mismatch should fail")
	}
}

// TestCheckRowsAtInt32Limit pins the one row-limit check every table build
// and append runs: a table may reach MaxRows (the int32 ids of its scan
// state index it fully) and never pass it, whatever the split between the
// rows it has and the rows it takes.
func TestCheckRowsAtInt32Limit(t *testing.T) {
	if MaxRows != math.MaxInt32 {
		t.Fatalf("MaxRows = %d, want math.MaxInt32", MaxRows)
	}
	for _, c := range []struct {
		have, add int
		ok        bool
	}{
		{0, 0, true},
		{0, MaxRows, true},
		{MaxRows - 1, 1, true},
		{MaxRows, 0, true},
		{MaxRows / 2, MaxRows - MaxRows/2, true},
		{MaxRows, 1, false},
		{1, MaxRows, false},
		{MaxRows - 5, 6, false},
		{MaxRows, MaxRows, false},
	} {
		if err := checkRows(c.have, c.add); (err == nil) != c.ok {
			t.Errorf("checkRows(%d, %d) = %v, want ok %v", c.have, c.add, err, c.ok)
		}
	}
}

func TestMustNewTablePanics(t *testing.T) {
	mustPanic(t, func() {
		MustNewTable(NewIntColumn("a", []int64{1}, nil), NewIntColumn("a", []int64{1}, nil))
	})
}

func TestTableBasicAccessors(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.NumRows() != 4 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if got := tbl.ColumnNames(); strings.Join(got, ",") != "id,x,cat" {
		t.Fatalf("names = %v", got)
	}
	if tbl.Column("x") == nil || tbl.Column("nope") != nil {
		t.Fatal("Column lookup broken")
	}
	if !tbl.HasColumn("cat") || tbl.HasColumn("dog") {
		t.Fatal("HasColumn broken")
	}
}

func TestDropColumnReindexes(t *testing.T) {
	tbl := sampleTable(t)
	tbl.DropColumn("x")
	if tbl.NumCols() != 2 || tbl.HasColumn("x") {
		t.Fatal("drop failed")
	}
	if tbl.Column("cat").Str(0) != "a" {
		t.Fatal("index not rebuilt")
	}
	tbl.DropColumn("missing") // no-op
	if tbl.NumCols() != 2 {
		t.Fatal("dropping missing column changed table")
	}
}

func TestSelectColumns(t *testing.T) {
	tbl := sampleTable(t)
	sub, err := tbl.SelectColumns("cat", "id")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 2 || sub.ColumnNames()[0] != "cat" {
		t.Fatalf("select = %v", sub.ColumnNames())
	}
	if _, err := tbl.SelectColumns("ghost"); err == nil {
		t.Fatal("unknown column should fail")
	}
}

func TestTakeFilterHead(t *testing.T) {
	tbl := sampleTable(t)
	taken := tbl.Take([]int{3, 0})
	if taken.NumRows() != 2 || taken.Column("id").Int(0) != 4 {
		t.Fatal("Take broken")
	}
	f := tbl.Filter(func(row int) bool { return tbl.Column("cat").Str(row) == "a" })
	if f.NumRows() != 2 {
		t.Fatalf("Filter rows = %d", f.NumRows())
	}
	m := tbl.FilterMask([]bool{true, false, false, true})
	if m.NumRows() != 2 || m.Column("id").Int(1) != 4 {
		t.Fatal("FilterMask broken")
	}
	h := tbl.Head(2)
	if h.NumRows() != 2 || h.Column("id").Int(1) != 2 {
		t.Fatal("Head broken")
	}
	if tbl.Head(100).NumRows() != 4 {
		t.Fatal("Head should clamp")
	}
}

func TestCloneTableIsDeep(t *testing.T) {
	tbl := sampleTable(t)
	cp := tbl.Clone()
	cp.Column("id").ints[0] = 99
	if tbl.Column("id").Int(0) != 1 {
		t.Fatal("Clone shares column storage")
	}
}

func TestStringRendering(t *testing.T) {
	tbl := sampleTable(t)
	out := tbl.String()
	if !strings.Contains(out, "id\tx\tcat") || !strings.Contains(out, "NULL") {
		t.Fatalf("String() = %q", out)
	}
}

func TestStringRenderingTruncates(t *testing.T) {
	n := 25
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	tbl := MustNewTable(NewIntColumn("id", vals, nil))
	if !strings.Contains(tbl.String(), "(25 rows)") {
		t.Fatal("should mention total row count when truncated")
	}
}

// Property: Filter(all-true) is identity on row count; Filter(all-false)
// yields zero rows.
func TestPropertyFilterExtremes(t *testing.T) {
	f := func(vals []int64) bool {
		tbl := MustNewTable(NewIntColumn("a", vals, nil))
		all := tbl.Filter(func(int) bool { return true })
		none := tbl.Filter(func(int) bool { return false })
		return all.NumRows() == len(vals) && none.NumRows() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableScanState(t *testing.T) {
	a := MustNewTable(NewIntColumn("k", []int64{1, 2}, nil))
	calls := 0
	mk := func() any { calls++; return &calls }
	first := a.ScanState(mk)
	if a.ScanState(mk) != first || calls != 1 {
		t.Fatalf("slot set %d times, want once and stable", calls)
	}
	// Derived tables start with an empty slot of their own.
	cc, err := Concat(a, a)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := a.SelectColumns("k")
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Table{"Clone": a.Clone(), "Take": a.Take([]int{0}), "Concat": cc, "SelectColumns": sel} {
		mine := new(int)
		if got := d.ScanState(func() any { return mine }); got != mine {
			t.Errorf("%s inherited the source's scan state", name)
		}
	}
	// Concurrent first calls agree on one value.
	b := MustNewTable(NewIntColumn("k", []int64{1}, nil))
	got := make(chan any, 8)
	for i := 0; i < 8; i++ {
		go func() { got <- b.ScanState(func() any { return new(int) }) }()
	}
	v := <-got
	for i := 1; i < 8; i++ {
		if <-got != v {
			t.Fatal("concurrent first calls set different values")
		}
	}
}

func TestAddFloatColumnsFlat(t *testing.T) {
	tbl := MustNewTable(NewIntColumn("k", []int64{1, 2, 3}, nil))
	vals := []float64{1, 2, 3, 4, math.NaN(), 6}
	valid := []bool{true, false, true, true, true, true}
	if err := tbl.AddFloatColumnsFlat([]string{"f0", "f1"}, vals, valid); err != nil {
		t.Fatal(err)
	}
	f0, f1 := tbl.Column("f0"), tbl.Column("f1")
	if f0 == nil || f1 == nil {
		t.Fatal("columns not appended")
	}
	if got, _ := f0.AsFloat(0); got != 1 {
		t.Fatalf("f0[0] = %v, want 1", got)
	}
	if !f0.IsNull(1) {
		t.Fatal("f0[1] should be NULL (valid=false)")
	}
	if !f1.IsNull(1) {
		t.Fatal("f1[1] should be NULL (NaN)")
	}
	if got, _ := f1.AsFloat(2); got != 6 {
		t.Fatalf("f1[2] = %v, want 6", got)
	}
	// Shape mismatch fails before any column lands.
	fresh := MustNewTable(NewIntColumn("k", []int64{1, 2, 3}, nil))
	if err := fresh.AddFloatColumnsFlat([]string{"a", "b"}, make([]float64, 5), make([]bool, 5)); err == nil {
		t.Fatal("want error on flat buffer / shape mismatch")
	}
	if fresh.NumCols() != 1 {
		t.Fatal("failed bulk append mutated the table")
	}
	// Empty table infers its row count from the buffer.
	empty := MustNewTable()
	if err := empty.AddFloatColumnsFlat([]string{"a", "b"}, make([]float64, 8), make([]bool, 8)); err != nil {
		t.Fatal(err)
	}
	if empty.NumRows() != 4 || empty.NumCols() != 2 {
		t.Fatalf("empty-table bulk append: %d rows x %d cols, want 4 x 2", empty.NumRows(), empty.NumCols())
	}
}
