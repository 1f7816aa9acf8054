package dataframe

import (
	"math"
	"testing"
)

func logsTable(t *testing.T) *Table {
	t.Helper()
	return MustNewTable(
		NewStringColumn("cname", []string{"alice", "bob", "alice", "bob", "alice"}, nil),
		NewFloatColumn("pprice", []float64{10, 20, 30, math.NaN(), 50}, nil),
		NewStringColumn("dept", []string{"elec", "food", "elec", "elec", "food"}, nil),
	)
}

func TestLeftJoinBasic(t *testing.T) {
	users := MustNewTable(
		NewStringColumn("cname", []string{"alice", "bob", "carol"}, nil),
		NewIntColumn("age", []int64{30, 40, 50}, nil),
	)
	feats := MustNewTable(
		NewStringColumn("cname", []string{"bob", "alice"}, nil),
		NewFloatColumn("feat", []float64{2, 1}, nil),
	)
	out, err := users.LeftJoin(feats, []string{"cname"}, []string{"cname"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	f := out.Column("feat")
	if f.Float(0) != 1 || f.Float(1) != 2 || !f.IsNull(2) {
		t.Fatalf("feat = %v %v null=%v", f.Float(0), f.Float(1), f.IsNull(2))
	}
	// left columns preserved
	if out.Column("age").Int(2) != 50 {
		t.Fatal("left column lost")
	}
}

func TestLeftJoinNameCollisionGetsSuffix(t *testing.T) {
	left := MustNewTable(
		NewStringColumn("k", []string{"a"}, nil),
		NewFloatColumn("v", []float64{1}, nil),
	)
	right := MustNewTable(
		NewStringColumn("k", []string{"a"}, nil),
		NewFloatColumn("v", []float64{2}, nil),
	)
	out, err := left.LeftJoin(right, []string{"k"}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.HasColumn("v_r") || out.Column("v_r").Float(0) != 2 {
		t.Fatal("collision suffix missing")
	}
}

func TestLeftJoinValidation(t *testing.T) {
	tbl := logsTable(t)
	if _, err := tbl.LeftJoin(tbl, nil, nil); err == nil {
		t.Fatal("empty keys should fail")
	}
	if _, err := tbl.LeftJoin(tbl, []string{"cname"}, []string{"cname", "dept"}); err == nil {
		t.Fatal("unequal key lists should fail")
	}
	if _, err := tbl.LeftJoin(tbl, []string{"ghost"}, []string{"cname"}); err == nil {
		t.Fatal("unknown left key should fail")
	}
	if _, err := tbl.LeftJoin(tbl, []string{"cname"}, []string{"ghost"}); err == nil {
		t.Fatal("unknown right key should fail")
	}
}

func TestLeftJoinUsesFirstRightMatch(t *testing.T) {
	left := MustNewTable(NewStringColumn("k", []string{"a"}, nil))
	right := MustNewTable(
		NewStringColumn("k", []string{"a", "a"}, nil),
		NewFloatColumn("v", []float64{10, 20}, nil),
	)
	out, err := left.LeftJoin(right, []string{"k"}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Column("v").Float(0) != 10 {
		t.Fatal("should keep exactly the first right match")
	}
}

func TestCompositeKeyJoin(t *testing.T) {
	left := MustNewTable(
		NewIntColumn("u", []int64{1, 1, 2}, nil),
		NewIntColumn("m", []int64{10, 20, 10}, nil),
	)
	right := MustNewTable(
		NewIntColumn("u", []int64{1, 2}, nil),
		NewIntColumn("m", []int64{20, 10}, nil),
		NewFloatColumn("v", []float64{5, 7}, nil),
	)
	out, err := left.LeftJoin(right, []string{"u", "m"}, []string{"u", "m"})
	if err != nil {
		t.Fatal(err)
	}
	v := out.Column("v")
	if !v.IsNull(0) || v.Float(1) != 5 || v.Float(2) != 7 {
		t.Fatal("composite key join wrong")
	}
}
