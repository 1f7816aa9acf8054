package query

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// naiveExecute recomputes a query with the generic dataframe primitives
// (mask → FilterMask → group rows by Table.RowKey → aggregate), a
// deliberately slow reference implementation used to differential-test the
// fused executor. It groups with a plain map, so it shares no code with
// GroupIndex.
func naiveExecute(t *testing.T, q Query, r *dataframe.Table) map[string]float64 {
	t.Helper()
	mask := make([]bool, r.NumRows())
	for i := range mask {
		mask[i] = true
	}
	for _, p := range q.Preds {
		if err := p.Eval(r, mask); err != nil {
			t.Fatal(err)
		}
	}
	filtered := r.FilterMask(mask)
	keyCols := make([]*dataframe.Column, len(q.Keys))
	for i, k := range q.Keys {
		if keyCols[i] = filtered.Column(k); keyCols[i] == nil {
			t.Fatalf("no key column %q", k)
		}
	}
	groups := map[string][]int{}
	for row := 0; row < filtered.NumRows(); row++ {
		key := filtered.RowKey(row, keyCols)
		groups[key] = append(groups[key], row)
	}
	aggCol := filtered.Column(q.AggAttr)
	out := map[string]float64{}
	for key, rows := range groups {
		if aggCol.Kind() == dataframe.KindString {
			var vals []string
			for _, row := range rows {
				if !aggCol.IsNull(row) {
					vals = append(vals, aggCol.Str(row))
				}
			}
			if v, ok := q.Agg.StringApply(vals, len(rows)); ok {
				out[key] = v
			}
			continue
		}
		var vals []float64
		for _, row := range rows {
			if v, ok := aggCol.AsFloat(row); ok {
				vals = append(vals, v)
			}
		}
		if v, ok := q.Agg.Apply(vals, len(rows)); ok {
			out[key] = v
		}
	}
	return out
}

// resultMap converts an executor result into key → feature for comparison.
func resultMap(t *testing.T, res *dataframe.Table, keys []string) map[string]float64 {
	t.Helper()
	keyCols := make([]*dataframe.Column, len(keys))
	for i, k := range keys {
		keyCols[i] = res.Column(k)
		if keyCols[i] == nil {
			t.Fatalf("result missing key %q", k)
		}
	}
	f := res.Column("feature")
	out := map[string]float64{}
	for i := 0; i < res.NumRows(); i++ {
		if f.IsNull(i) {
			continue
		}
		out[res.RowKey(i, keyCols)] = f.Float(i)
	}
	return out
}

// TestDifferentialExecutor runs hundreds of random queries through both the
// fused executor and the naive reference and requires identical results.
func TestDifferentialExecutor(t *testing.T) {
	r := largeRandomTable(600, 77)
	tpl := Template{
		Funcs:     agg.All(),
		AggAttrs:  []string{"x", "cat", "ts"},
		PredAttrs: []string{"cat", "flag", "x", "ts"},
		Keys:      []string{"k1", "k2"},
	}
	s, err := BuildSpace(r, tpl, SpaceOptions{NumGridPoints: 5, MaxCategories: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(r, "feature")
		if err != nil {
			t.Fatalf("%s: %v", q.SQL("r"), err)
		}
		got := resultMap(t, res, q.Keys)
		want := naiveExecute(t, q, r)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups vs reference %d", q.SQL("r"), len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("%s: missing group %q", q.SQL("r"), k)
			}
			if math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
				t.Fatalf("%s: group %q = %v, reference %v", q.SQL("r"), k, g, w)
			}
		}
	}
}

// sameTable requires two result tables to be row-for-row identical: same
// columns in order, same rows in order, same values and null flags.
func sameTable(t *testing.T, label string, got, want *dataframe.Table) {
	t.Helper()
	gn, wn := got.ColumnNames(), want.ColumnNames()
	if len(gn) != len(wn) {
		t.Fatalf("%s: %d columns vs %d", label, len(gn), len(wn))
	}
	for i := range gn {
		if gn[i] != wn[i] {
			t.Fatalf("%s: column %d = %q, want %q", label, i, gn[i], wn[i])
		}
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows vs %d", label, got.NumRows(), want.NumRows())
	}
	for _, name := range wn {
		gc, wc := got.Column(name), want.Column(name)
		for row := 0; row < want.NumRows(); row++ {
			if gc.IsNull(row) != wc.IsNull(row) {
				t.Fatalf("%s: %s[%d] null %v, want %v", label, name, row, gc.IsNull(row), wc.IsNull(row))
			}
			if gc.IsNull(row) {
				continue
			}
			if gv, wv := gc.Value(row), wc.Value(row); gv != wv {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, name, row, gv, wv)
			}
		}
	}
}

// oracleBatch evaluates every query of qs with Query.Execute over r: the one
// reference the executor's fast paths are checked against.
func oracleBatch(t *testing.T, r *dataframe.Table, qs []Query, featureName string) []*dataframe.Table {
	t.Helper()
	want := make([]*dataframe.Table, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = q.Execute(r, featureName); err != nil {
			t.Fatalf("oracle %s: %v", q.SQL("r"), err)
		}
	}
	return want
}

// TestDifferentialBatchExecutor runs batches of random queries — spanning all
// 15 aggregation functions, every predicate kind and random key subsets, over
// several random tables, plus bound-less ranges on a float and a time column
// and NaN bounds on a float, a time and an int column — through
// Executor.ExecuteBatch and requires each result to be row-for-row
// identical to the per-query Query.Execute path.
func TestDifferentialBatchExecutor(t *testing.T) {
	tpl := Template{
		Funcs:     agg.All(),
		AggAttrs:  []string{"x", "cat", "ts"},
		PredAttrs: []string{"cat", "flag", "x", "ts"},
		Keys:      []string{"k1", "k2"},
	}
	for _, seed := range []int64{3, 41, 88} {
		r := largeRandomTable(400, seed)
		s, err := BuildSpace(r, tpl, SpaceOptions{NumGridPoints: 5, MaxCategories: 6})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 1))
		qs := make([]Query, 120)
		for i := range qs {
			q, err := s.Decode(s.RandomVector(rng.Intn))
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		// Bound-less ranges never come out of a Space, but a plan file or a
		// hand-built Query can carry one: it matches every non-NULL row of
		// its attribute, alone or next to a real bound.
		for _, attr := range []string{"x", "ts"} {
			all := Predicate{Attr: attr, Kind: PredRange}
			qs = append(qs,
				Query{Agg: agg.Count, AggAttr: "ts", Keys: []string{"k1"}, Preds: []Predicate{all}},
				Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1", "k2"}, Preds: []Predicate{all,
					{Attr: "ts", Kind: PredRange, HasLo: true, Lo: 50000}}})
		}
		// A NaN bound compares false both ways, so Query.Execute rejects no
		// row on it: on the float x, the time ts and the int k1 it must act
		// as no bound, alone or beside a real one.
		nan := math.NaN()
		for _, attr := range []string{"x", "ts", "k1"} {
			qs = append(qs,
				Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"}, Preds: []Predicate{
					{Attr: attr, Kind: PredRange, HasLo: true, Lo: nan}}},
				Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"}, Preds: []Predicate{
					{Attr: attr, Kind: PredRange, HasHi: true, Hi: nan}}},
				Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}, Preds: []Predicate{
					{Attr: attr, Kind: PredRange, HasLo: true, Lo: nan, HasHi: true, Hi: 10}}},
				Query{Agg: agg.Max, AggAttr: "ts", Keys: []string{"k1"}, Preds: []Predicate{
					{Attr: attr, Kind: PredRange, HasLo: true, Lo: -10, HasHi: true, Hi: nan}}})
		}
		ex := NewExecutor(r)
		batch, err := ex.ExecuteBatch(qs, "feature")
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, err := q.Execute(r, "feature")
			if err != nil {
				t.Fatalf("%s: %v", q.SQL("r"), err)
			}
			sameTable(t, q.SQL("r"), batch[i], want)
		}
		// The caches must be idempotent: a second batch over the same pool
		// (now fully warm) returns identical results.
		again, err := ex.ExecuteBatch(qs, "feature")
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			sameTable(t, "warm "+q.SQL("r"), again[i], batch[i])
		}
	}
}

// TestExecutorAugmentMatchesQueryAugment checks the join side: joining a
// batch-executed feature onto a training table equals Query.Augment.
func TestExecutorAugmentMatchesQueryAugment(t *testing.T) {
	r := largeRandomTable(300, 5)
	// A training table keyed like the relevant table.
	var k1 []int64
	var k2 []string
	for i := int64(0); i < 25; i++ {
		k1 = append(k1, i)
		k2 = append(k2, []string{"a", "b", "c"}[i%3])
	}
	d := dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
	)
	tpl := Template{
		Funcs:     agg.All(),
		AggAttrs:  []string{"x", "cat"},
		PredAttrs: []string{"cat", "x"},
		Keys:      []string{"k1", "k2"},
	}
	s, err := BuildSpace(r, tpl, SpaceOptions{NumGridPoints: 4, MaxCategories: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ex := NewExecutor(r)
	for trial := 0; trial < 50; trial++ {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.Augment(d, q, "f")
		if err != nil {
			t.Fatalf("%s: %v", q.SQL("r"), err)
		}
		want, err := q.Augment(d, r, "f")
		if err != nil {
			t.Fatalf("%s: %v", q.SQL("r"), err)
		}
		sameTable(t, q.SQL("r"), got, want)
	}
}

// largeRandomTable builds a mixed-type table with nulls for differential
// testing.
func largeRandomTable(n int, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	k2 := make([]string, n)
	x := make([]float64, n)
	xValid := make([]bool, n)
	cat := make([]string, n)
	catValid := make([]bool, n)
	flag := make([]bool, n)
	ts := make([]int64, n)
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(20))
		k2[i] = cats[rng.Intn(3)]
		x[i] = rng.NormFloat64() * 100
		xValid[i] = rng.Float64() > 0.1
		cat[i] = cats[rng.Intn(len(cats))]
		catValid[i] = rng.Float64() > 0.1
		flag[i] = rng.Float64() > 0.5
		ts[i] = int64(rng.Intn(100000))
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("x", x, xValid),
		dataframe.NewStringColumn("cat", cat, catValid),
		dataframe.NewBoolColumn("flag", flag, nil),
		dataframe.NewTimeColumn("ts", ts, nil),
	)
}
