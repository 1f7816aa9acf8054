package dataframe

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestConcatStacksRows(t *testing.T) {
	a := MustNewTable(
		NewIntColumn("id", []int64{1, 2}, nil),
		NewStringColumn("s", []string{"x", "y"}, nil),
	)
	b := MustNewTable(
		NewStringColumn("s", []string{"z"}, []bool{false}), // different col order + a null
		NewIntColumn("id", []int64{3}, nil),
	)
	got, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if got.Column("id").Int(2) != 3 {
		t.Fatal("second table rows lost")
	}
	if !got.Column("s").IsNull(2) {
		t.Fatal("null not preserved")
	}
	// first table's column order wins
	if got.ColumnNames()[0] != "id" {
		t.Fatal("column order wrong")
	}
}

func TestConcatAllKinds(t *testing.T) {
	mk := func() *Table {
		return MustNewTable(
			NewIntColumn("i", []int64{1}, nil),
			NewFloatColumn("f", []float64{1.5}, nil),
			NewStringColumn("s", []string{"a"}, nil),
			NewBoolColumn("b", []bool{true}, nil),
			NewTimeColumn("t", []int64{100}, nil),
		)
	}
	got, err := Concat(mk(), mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || got.Column("t").Int(2) != 100 || !got.Column("b").Bool(1) {
		t.Fatal("concat lost values")
	}
}

func TestConcatErrors(t *testing.T) {
	if _, err := Concat(); err == nil {
		t.Error("empty concat should fail")
	}
	a := MustNewTable(NewIntColumn("x", []int64{1}, nil))
	missing := MustNewTable(NewIntColumn("y", []int64{1}, nil))
	if _, err := Concat(a, missing); err == nil {
		t.Error("missing column should fail")
	}
	wrongKind := MustNewTable(NewFloatColumn("x", []float64{1}, nil))
	if _, err := Concat(a, wrongKind); err == nil {
		t.Error("kind mismatch should fail")
	}
	extra := MustNewTable(NewIntColumn("x", []int64{1}, nil), NewIntColumn("y", []int64{1}, nil))
	if _, err := Concat(a, extra); err == nil {
		t.Error("extra columns should fail")
	}
}

// TestConcatDifferential checks Concat against building the same rows from
// scratch: values, validity AND the dictionary encoding must be identical.
// Concat goes through the Append* path (extending the first table's cloned
// columns row by row), so this is the differential test that appending
// preserves the from-scratch encoding — including the code arrays, which
// match because codes are assigned in first-seen order and every append
// below the cap extends them in place.
func TestConcatDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cats := []string{"a", "aa", "b", "c", "dd", "e"}
	type raw struct {
		i  []int64
		f  []float64
		s  []string
		b  []bool
		ts []int64
		iv []bool
		fv []bool
		sv []bool
	}
	gen := func(n int, hiCard bool) raw {
		var r raw
		for j := 0; j < n; j++ {
			r.i = append(r.i, int64(rng.Intn(50)))
			r.f = append(r.f, rng.NormFloat64())
			if hiCard {
				r.s = append(r.s, fmt.Sprintf("u%05d", rng.Intn(100000)))
			} else {
				r.s = append(r.s, cats[rng.Intn(len(cats))])
			}
			r.b = append(r.b, rng.Intn(2) == 0)
			r.ts = append(r.ts, int64(rng.Intn(1000)))
			r.iv = append(r.iv, rng.Float64() > 0.15)
			r.fv = append(r.fv, rng.Float64() > 0.15)
			r.sv = append(r.sv, rng.Float64() > 0.15)
		}
		return r
	}
	mk := func(r raw) *Table {
		return MustNewTable(
			NewIntColumn("i", r.i, r.iv),
			NewFloatColumn("f", r.f, r.fv),
			NewStringColumn("s", r.s, r.sv),
			NewBoolColumn("b", r.b, nil),
			NewTimeColumn("ts", r.ts, nil),
		)
	}
	join := func(parts ...raw) raw {
		var all raw
		for _, r := range parts {
			all.i = append(all.i, r.i...)
			all.f = append(all.f, r.f...)
			all.s = append(all.s, r.s...)
			all.b = append(all.b, r.b...)
			all.ts = append(all.ts, r.ts...)
			all.iv = append(all.iv, r.iv...)
			all.fv = append(all.fv, r.fv...)
			all.sv = append(all.sv, r.sv...)
		}
		return all
	}
	for _, tc := range []struct {
		name   string
		hiCard bool
		sizes  []int
	}{
		{"low-cardinality", false, []int{80, 1, 33, 64}},
		{"over-dict-cap", true, []int{900, 400}}, // distinct strings cross MaxDictCardinality
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts := make([]raw, len(tc.sizes))
			tabs := make([]*Table, len(tc.sizes))
			for k, n := range tc.sizes {
				parts[k] = gen(n, tc.hiCard)
				tabs[k] = mk(parts[k])
			}
			// Warm the first table's dictionary so Concat's clone-then-append
			// runs against a built encoding, the serving path's shape.
			tabs[0].Column("s").Dict()
			got, err := Concat(tabs...)
			if err != nil {
				t.Fatal(err)
			}
			want := mk(join(parts...))
			if got.NumRows() != want.NumRows() {
				t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
			}
			for _, name := range want.ColumnNames() {
				gc, wc := got.Column(name), want.Column(name)
				for row := 0; row < want.NumRows(); row++ {
					if gc.IsNull(row) != wc.IsNull(row) {
						t.Fatalf("%s row %d: null = %v, from scratch %v", name, row, gc.IsNull(row), wc.IsNull(row))
					}
					if !gc.IsNull(row) && gc.Value(row) != wc.Value(row) {
						t.Fatalf("%s row %d: %v, from scratch %v", name, row, gc.Value(row), wc.Value(row))
					}
				}
			}
			if diff := sameDict(got.Column("s").Dict(), want.Column("s").Dict()); diff != "" {
				t.Fatalf("dict of the concat vs from scratch: %s", diff)
			}
		})
	}
}
