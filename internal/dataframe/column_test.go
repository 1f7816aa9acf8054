package dataframe

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt: "int", KindFloat: "float", KindString: "string",
		KindTime: "time", KindBool: "bool", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestKindIsNumeric(t *testing.T) {
	for _, k := range []Kind{KindInt, KindFloat, KindTime} {
		if !k.IsNumeric() {
			t.Errorf("%s should be numeric", k)
		}
	}
	for _, k := range []Kind{KindString, KindBool} {
		if k.IsNumeric() {
			t.Errorf("%s should not be numeric", k)
		}
	}
}

func TestIntColumnBasics(t *testing.T) {
	c := NewIntColumn("a", []int64{1, 2, 3}, []bool{true, false, true})
	if c.Name() != "a" || c.Kind() != KindInt || c.Len() != 3 {
		t.Fatalf("bad metadata: %s %s %d", c.Name(), c.Kind(), c.Len())
	}
	if c.Int(0) != 1 || c.IsNull(0) || !c.IsNull(1) || c.IsNull(2) {
		t.Fatal("wrong values/nulls")
	}
}

func TestFloatColumnNaNBecomesNull(t *testing.T) {
	c := NewFloatColumn("x", []float64{1.5, math.NaN(), 2.5}, nil)
	if !c.IsNull(1) {
		t.Fatal("NaN should be NULL")
	}
	if c.IsNull(0) || c.IsNull(2) {
		t.Fatal("non-NaN should be valid")
	}
}

func TestTimeColumn(t *testing.T) {
	ts := time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)
	c := NewTimeColumn("ts", []int64{ts.Unix()}, nil)
	if !c.Time(0).Equal(ts) {
		t.Fatalf("Time(0) = %v, want %v", c.Time(0), ts)
	}
	if v, ok := c.AsFloat(0); !ok || v != float64(ts.Unix()) {
		t.Fatalf("AsFloat = %v,%v", v, ok)
	}
}

func TestAsFloatCoercions(t *testing.T) {
	b := NewBoolColumn("b", []bool{true, false}, nil)
	if v, ok := b.AsFloat(0); !ok || v != 1 {
		t.Fatalf("bool true AsFloat = %v,%v", v, ok)
	}
	if v, ok := b.AsFloat(1); !ok || v != 0 {
		t.Fatalf("bool false AsFloat = %v,%v", v, ok)
	}
	s := NewStringColumn("s", []string{"x"}, nil)
	if _, ok := s.AsFloat(0); ok {
		t.Fatal("string AsFloat should report not-ok")
	}
}

func TestValueInterface(t *testing.T) {
	c := NewIntColumn("a", []int64{7, 0}, []bool{true, false})
	if got := c.Value(0); got.(int64) != 7 {
		t.Fatalf("Value(0) = %v", got)
	}
	if got := c.Value(1); got != nil {
		t.Fatalf("Value(1) = %v, want nil", got)
	}
}

func TestKeyStringDistinguishesNullAndTypes(t *testing.T) {
	ci := NewIntColumn("a", []int64{1}, nil)
	cf := NewFloatColumn("b", []float64{1}, nil)
	if ci.KeyString(0) == cf.KeyString(0) {
		t.Fatal("int 1 and float 1 keys should differ")
	}
	cn := NewIntColumn("c", []int64{0}, []bool{false})
	if cn.KeyString(0) != "\x00NULL" {
		t.Fatalf("null key = %q", cn.KeyString(0))
	}
}

func TestTakeReordersAndPreservesNulls(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "b", "c"}, []bool{true, false, true})
	got := c.Take([]int{2, 0, 2})
	if got.Len() != 3 || got.Str(0) != "c" || got.Str(1) != "a" || got.Str(2) != "c" {
		t.Fatalf("Take wrong: %v %v %v", got.Str(0), got.Str(1), got.Str(2))
	}
	got2 := c.Take([]int{1})
	if !got2.IsNull(0) {
		t.Fatal("Take should preserve nulls")
	}
}

func TestFloatsOrdinalEncodingForStrings(t *testing.T) {
	c := NewStringColumn("s", []string{"banana", "apple", "banana", ""}, []bool{true, true, true, false})
	vals, valid := c.Floats()
	// sorted domain: apple=0, banana=1
	if vals[0] != 1 || vals[1] != 0 || vals[2] != 1 {
		t.Fatalf("ordinal codes = %v", vals)
	}
	if valid[3] {
		t.Fatal("null row should be invalid")
	}
}

func TestAppendersRoundTrip(t *testing.T) {
	ci := &Column{name: "i", kind: KindInt}
	ci.AppendInt(5)
	ci.AppendNull()
	if ci.Len() != 2 || ci.Int(0) != 5 || !ci.IsNull(1) {
		t.Fatal("int append broken")
	}
	cf := &Column{name: "f", kind: KindFloat}
	cf.AppendFloat(2.5)
	cf.AppendFloat(math.NaN())
	if cf.Float(0) != 2.5 || !cf.IsNull(1) {
		t.Fatal("float append broken (NaN should be null)")
	}
	cs := &Column{name: "s", kind: KindString}
	cs.AppendStr("hi")
	if cs.Str(0) != "hi" {
		t.Fatal("string append broken")
	}
	cb := &Column{name: "b", kind: KindBool}
	cb.AppendBool(true)
	if !cb.Bool(0) {
		t.Fatal("bool append broken")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := NewIntColumn("a", []int64{1, 2}, nil)
	cp := c.Clone()
	cp.ints[0] = 99
	if c.Int(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestDistinctStringsSortedCapped(t *testing.T) {
	c := NewStringColumn("s", []string{"c", "a", "b", "a"}, nil)
	got := c.DistinctStrings(0)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("DistinctStrings = %v", got)
	}
	if got := c.DistinctStrings(2); len(got) != 2 {
		t.Fatalf("capped DistinctStrings = %v", got)
	}
}

func TestRenameSharesData(t *testing.T) {
	c := NewIntColumn("a", []int64{1}, nil)
	r := c.Rename("b")
	if r.Name() != "b" || c.Name() != "a" {
		t.Fatal("rename wrong")
	}
	if r.Int(0) != 1 {
		t.Fatal("renamed column lost data")
	}
}

func TestColumnAccessorPanicsOnWrongKind(t *testing.T) {
	c := NewIntColumn("a", []int64{1}, nil)
	mustPanic(t, func() { c.Float(0) })
	mustPanic(t, func() { c.Str(0) })
	mustPanic(t, func() { c.Bool(0) })
	mustPanic(t, func() { c.Time(0) })
	s := NewStringColumn("s", []string{"x"}, nil)
	mustPanic(t, func() { s.Int(0) })
	mustPanic(t, func() { c.DistinctStrings(0) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

// Property: Take with identity permutation returns an equal column.
func TestPropertyTakeIdentity(t *testing.T) {
	f := func(vals []int64) bool {
		c := NewIntColumn("a", vals, nil)
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		got := c.Take(idx)
		for i := range vals {
			if got.Int(i) != vals[i] {
				return false
			}
		}
		return got.Len() == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Floats() on an int column is the exact float conversion.
func TestPropertyFloatsMatchesInts(t *testing.T) {
	f := func(vals []int64) bool {
		c := NewIntColumn("a", vals, nil)
		fs, valid := c.Floats()
		for i, v := range vals {
			if !valid[i] || fs[i] != float64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
