package query

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// lowCardTable builds a relevant table whose aggregation attributes span the
// domain shapes order statistics meet: a small-int code column, a
// low-cardinality category column and a bool, where sorted runs are long
// runs of ties, plus a float column, a wide-range int and a huge-magnitude
// int.
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

// TestDifferentialLowCardinalityOrderStats requires every order-statistics
// aggregate to match the oracle bit for bit (checkGroups), both on the
// small-int, categorical and bool domains, where sorted runs are mostly ties,
// and on the float, wide-range and huge-magnitude domains.
func TestDifferentialLowCardinalityOrderStats(t *testing.T) {
	r := lowCardTable(600, 201)
	for _, attrs := range [][]string{
		{"code", "cat", "flag"},
		{"wide", "huge", "x"},
	} {
		checkGroups(t, "batch", NewExecutor(r), orderStatsPool(attrs), r)
	}
}

// TestIntProbeBounds pins the integer probe the range kernel reads: a
// small-int column's observed bounds, wide and huge int columns still served
// (every value exact as a float64), and no probe for a float column.
func TestIntProbeBounds(t *testing.T) {
	r := lowCardTable(400, 211)
	e := NewExecutor(r)
	var qs []Query
	for _, attr := range []string{"code", "wide", "huge", "x"} {
		qs = append(qs, Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: attr, Kind: PredRange, HasLo: true, Lo: 0}}})
	}
	if _, err := e.AugmentMatrix(context.Background(), r, qs); err != nil {
		t.Fatal(err)
	}
	probes := e.core.probes
	if ip := probes["code"]; ip == nil || !ip.intOK || ip.mn != -7 || ip.mx != 15 {
		t.Errorf("code probe = %+v, want intOK with mn -7, mx 15", ip)
	}
	for _, col := range []string{"wide", "huge"} {
		if ip := probes[col]; ip == nil || !ip.intOK {
			t.Errorf("%s probe = %+v, want intOK", col, ip)
		}
	}
	if ip, ok := probes["x"]; ok {
		t.Errorf("float column x was probed: %+v", ip)
	}
}

// TestOrderStatsMixedWithStreaming covers the shape where one attribute
// feeds both streaming accumulators (SUM/VAR/KURTOSIS) and sorted buffers
// (MEDIAN/ENTROPY): the row-ordered accumulation must be untouched by the
// per-group sort that follows it in the same scan.
func TestOrderStatsMixedWithStreaming(t *testing.T) {
	r := lowCardTable(500, 221)
	var qs []Query
	for _, fn := range []agg.Func{agg.Sum, agg.VarSample, agg.Kurtosis, agg.Median, agg.Entropy} {
		qs = append(qs, Query{Agg: fn, AggAttr: "code", Keys: []string{"k1"}})
	}
	checkGroups(t, "batch", NewExecutor(r), qs, r)
}
