package query

import (
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// lowCardTable builds a relevant table whose aggregation attributes have the
// domain shapes the counting path targets: a small-int code column, a
// low-cardinality category column, a bool, plus ineligible controls (a float
// column, a wide-range int, a huge-magnitude int).
func lowCardTable(n int, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	code := make([]int64, n)
	codeValid := make([]bool, n)
	cat := make([]string, n)
	catValid := make([]bool, n)
	flag := make([]bool, n)
	wide := make([]int64, n)
	huge := make([]int64, n)
	x := make([]float64, n)
	cats := []string{"red", "green", "blue", "teal", "plum"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(15))
		code[i] = int64(rng.Intn(23)) - 7 // domain [-7, 15]
		codeValid[i] = rng.Float64() > 0.2
		cat[i] = cats[rng.Intn(len(cats))]
		catValid[i] = rng.Float64() > 0.2
		flag[i] = rng.Float64() > 0.4
		wide[i] = rng.Int63n(10_000_000) // range far beyond the domain bound
		huge[i] = (int64(1) << 40) + int64(rng.Intn(50))
		x[i] = rng.NormFloat64()
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewIntColumn("code", code, codeValid),
		dataframe.NewStringColumn("cat", cat, catValid),
		dataframe.NewBoolColumn("flag", flag, nil),
		dataframe.NewIntColumn("wide", wide, nil),
		dataframe.NewIntColumn("huge", huge, nil),
		dataframe.NewFloatColumn("x", x, nil),
	)
}

// orderStatsPool sweeps the buffered (sort-served) aggregates over the given
// attributes under a few masks.
func orderStatsPool(attrs []string) []Query {
	funcs := []agg.Func{agg.Median, agg.MAD, agg.Mode, agg.Entropy, agg.CountDistinct}
	masks := [][]Predicate{
		nil,
		{{Attr: "code", Kind: PredRange, HasLo: true, Lo: 0}},
		{{Attr: "cat", Kind: PredEq, StrValue: "red"}},
	}
	var out []Query
	for _, a := range attrs {
		for _, fn := range funcs {
			for _, m := range masks {
				out = append(out, Query{Agg: fn, AggAttr: a, Keys: []string{"k1"}, Preds: m})
			}
		}
	}
	return out
}

// TestDifferentialCountingSort requires every order-statistics aggregate to
// match the oracle bit for bit (checkGroups), both on the small-int,
// categorical and bool domains the counting path serves and on the float,
// wide-range and huge-magnitude domains the probe rejects (the comparison
// sort).
func TestDifferentialCountingSort(t *testing.T) {
	r := lowCardTable(600, 201)
	for _, tc := range []struct {
		attrs    []string
		counting bool
	}{
		{[]string{"code", "cat", "flag"}, true},
		{[]string{"wide", "huge", "x"}, false},
	} {
		qs := orderStatsPool(tc.attrs)
		ex := NewExecutor(r)
		checkGroups(t, "batch", ex, qs, r)
		if n := ex.Stats().CountingScans; (n > 0) != tc.counting {
			t.Errorf("%v: CountingScans = %d, want counting path %v", tc.attrs, n, tc.counting)
		}
	}
}

// TestCountingDomainProbe pins which columns the probe admits: small-int,
// categorical and bool domains in; floats, wide ranges and huge magnitudes
// out.
func TestCountingDomainProbe(t *testing.T) {
	r := lowCardTable(400, 211)
	e := NewExecutor(r)
	cases := []struct {
		col string
		ok  bool
	}{
		{"code", true},
		{"cat", true},
		{"flag", true},
		{"wide", false},
		{"huge", false},
		{"x", false},
	}
	for _, c := range cases {
		if got := e.domain(r.Column(c.col)).ok; got != c.ok {
			t.Errorf("domain(%q).ok = %v, want %v", c.col, got, c.ok)
		}
	}
	if dom := e.domain(r.Column("code")); dom.base != -7 || dom.k != 23 {
		t.Errorf("code domain base=%d k=%d, want base=-7 k=23", dom.base, dom.k)
	}
	if dom := e.domain(r.Column("cat")); dom.k != 5 || len(dom.svals) != 5 || dom.svals[0] != "blue" {
		t.Errorf("cat domain k=%d svals=%v, want 5 sorted values starting with blue", dom.k, dom.svals)
	}
}

// TestCountingSortMixedWithStreaming covers the shape where one attribute
// feeds both streaming accumulators (SUM/VAR) and sorted buffers (MEDIAN):
// the row-ordered accumulation must be untouched by the counting rewrite.
func TestCountingSortMixedWithStreaming(t *testing.T) {
	r := lowCardTable(500, 221)
	var qs []Query
	for _, fn := range []agg.Func{agg.Sum, agg.VarSample, agg.Kurtosis, agg.Median, agg.Entropy} {
		qs = append(qs, Query{Agg: fn, AggAttr: "code", Keys: []string{"k1"}})
	}
	ex := NewExecutor(r)
	checkGroups(t, "batch", ex, qs, r)
	if ex.Stats().CountingScans == 0 {
		t.Error("code attribute's sorted runs never took the counting path")
	}
}
