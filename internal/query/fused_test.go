package query

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// randomPool builds a batch the way search procedures do — random agg funcs
// over a few attributes, predicates drawn from a small discrete pool, random
// key subsets — so a batch spans many plan groups with heavy sharing inside
// each. Deliberately includes duplicates, predicate-free queries, string and
// bool agg columns, and BETWEEN-vs-decomposed spellings of the same mask.
func randomPool(rng *rand.Rand, n int) []Query {
	keysets := [][]string{{"k1"}, {"k2"}, {"k1", "k2"}}
	aggAttrs := []string{"x", "cat", "ts", "flag"}
	preds := []Predicate{
		{Attr: "cat", Kind: PredEq, StrValue: "a"},
		{Attr: "cat", Kind: PredEq, StrValue: "c"},
		{Attr: "flag", Kind: PredEq, BoolValue: true},
		{Attr: "flag", Kind: PredEq, BoolValue: false},
		{Attr: "x", Kind: PredRange, HasLo: true, Lo: -50},
		{Attr: "x", Kind: PredRange, HasHi: true, Hi: 80},
		{Attr: "x", Kind: PredRange, HasLo: true, HasHi: true, Lo: -50, Hi: 80},
		{Attr: "ts", Kind: PredRange, HasLo: true, Lo: 20000},
		{Attr: "ts", Kind: PredRange, HasHi: true, Hi: 70000},
	}
	out := make([]Query, n)
	for i := range out {
		q := Query{
			Agg:     agg.Func(rng.Intn(15)),
			AggAttr: aggAttrs[rng.Intn(len(aggAttrs))],
			Keys:    keysets[rng.Intn(len(keysets))],
		}
		for _, p := range preds {
			if rng.Float64() < 0.25 {
				q.Preds = append(q.Preds, p)
			}
		}
		out[i] = q
	}
	return out
}

// nullHeavyTable is largeRandomTable with most agg values NULL and NULLs in a
// key column, stressing the all-NULL-group and NULL-key paths.
func nullHeavyTable(n int, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	k1Valid := make([]bool, n)
	k2 := make([]string, n)
	x := make([]float64, n)
	xValid := make([]bool, n)
	cat := make([]string, n)
	catValid := make([]bool, n)
	flag := make([]bool, n)
	flagValid := make([]bool, n)
	ts := make([]int64, n)
	tsValid := make([]bool, n)
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(12))
		k1Valid[i] = rng.Float64() > 0.15
		k2[i] = cats[rng.Intn(3)]
		x[i] = rng.NormFloat64() * 100
		xValid[i] = rng.Float64() > 0.6
		cat[i] = cats[rng.Intn(len(cats))]
		catValid[i] = rng.Float64() > 0.6
		flag[i] = rng.Float64() > 0.5
		flagValid[i] = rng.Float64() > 0.6
		ts[i] = int64(rng.Intn(100000))
		tsValid[i] = rng.Float64() > 0.6
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, k1Valid),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("x", x, xValid),
		dataframe.NewStringColumn("cat", cat, catValid),
		dataframe.NewBoolColumn("flag", flag, flagValid),
		dataframe.NewTimeColumn("ts", ts, tsValid),
	)
}

// TestDifferentialFusedExecuteBatch requires the fused batch path to be
// row-for-row — and bit-for-bit — identical to the independent Query.Execute
// oracle, cold and warm, across random mixed-template batches, all 15 agg
// funcs, string/float/int/bool/time agg columns, and a NULL-heavy table.
func TestDifferentialFusedExecuteBatch(t *testing.T) {
	tables := map[string]*dataframe.Table{
		"mixed":     largeRandomTable(500, 11),
		"nullheavy": nullHeavyTable(500, 12),
	}
	for name, r := range tables {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			qs := randomPool(rng, 200)
			fused := NewExecutor(r)
			got, err := fused.ExecuteBatch(qs, "feature")
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*dataframe.Table, len(qs))
			for i, q := range qs {
				if want[i], err = q.Execute(r, "feature"); err != nil {
					t.Fatalf("%s: %v", q.SQL("r"), err)
				}
				sameTable(t, "independent "+q.SQL("r"), got[i], want[i])
			}
			// A second, warm batch must reuse the plan cache and still match.
			again, err := fused.ExecuteBatch(qs, "feature")
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				sameTable(t, "warm "+q.SQL("r"), again[i], want[i])
			}
			st := fused.Stats()
			if st.FusedQueries == 0 || st.FusedScans == 0 {
				t.Fatalf("fused path did not run: %+v", st)
			}
			if st.PlanHits == 0 {
				t.Fatalf("warm batch hit no cached plans: %+v", st)
			}
		})
	}
}

// oracleFeature is the Query.Augment oracle's feature column over d's rows,
// in AugmentValues' (vals, valid) convention.
func oracleFeature(t *testing.T, q Query, d, r *dataframe.Table) ([]float64, []bool) {
	t.Helper()
	const name = "oracle_feature"
	if d.HasColumn(name) {
		t.Fatalf("training table already has a %q column", name)
	}
	aug, err := q.Augment(d, r, name)
	if err != nil {
		t.Fatalf("%s: %v", q.SQL("r"), err)
	}
	return aug.Column(name).Floats()
}

// TestDifferentialFusedAugmentValuesBatch checks the join side: fused batch
// feature slices must equal both the single-query AugmentValues and the
// Query.Augment oracle, element for element.
func TestDifferentialFusedAugmentValuesBatch(t *testing.T) {
	r := largeRandomTable(400, 31)
	d := largeRandomTable(150, 32)
	rng := rand.New(rand.NewSource(33))
	qs := randomPool(rng, 150)

	fused := NewExecutor(r)
	vals, valid, err := fused.AugmentValuesBatch(d, qs)
	if err != nil {
		t.Fatal(err)
	}
	single := NewExecutor(r)
	for i, q := range qs {
		wantVals, wantValid := oracleFeature(t, q, d, r)
		sv, sok, err := single.AugmentValues(d, q)
		if err != nil {
			t.Fatalf("%s: %v", q.SQL("r"), err)
		}
		for row := range sv {
			if valid[i][row] != wantValid[row] || valid[i][row] != sok[row] {
				t.Fatalf("%s row %d: valid fused=%v oracle=%v single=%v",
					q.SQL("r"), row, valid[i][row], wantValid[row], sok[row])
			}
			if vals[i][row] != wantVals[row] || vals[i][row] != sv[row] {
				t.Fatalf("%s row %d: value fused=%v oracle=%v single=%v",
					q.SQL("r"), row, vals[i][row], wantVals[row], sv[row])
			}
		}
	}
}

// TestFusedMaskCanonicalisation checks that a BETWEEN predicate and its
// two-one-sided spelling land in the same plan group (one discovery scan,
// second query a plan-cache hit) and agree with the independent path.
func TestFusedMaskCanonicalisation(t *testing.T) {
	r := largeRandomTable(300, 41)
	between := Query{Agg: agg.Avg, AggAttr: "x", Keys: []string{"k1"},
		Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, HasHi: true, Lo: -30, Hi: 60}}}
	split := Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"},
		Preds: []Predicate{
			{Attr: "x", Kind: PredRange, HasHi: true, Hi: 60},
			{Attr: "x", Kind: PredRange, HasLo: true, Lo: -30},
		}}
	ex := NewExecutor(r)
	if ex.maskSig(between.Preds) != ex.maskSig(split.Preds) {
		t.Fatalf("signatures differ: %q vs %q", ex.maskSig(between.Preds), ex.maskSig(split.Preds))
	}
	got, err := ex.ExecuteBatch([]Query{between, split}, "feature")
	if err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.PlanMisses != 1 {
		t.Fatalf("want one shared plan group, got misses=%d hits=%d", st.PlanMisses, st.PlanHits)
	}
	for i, q := range []Query{between, split} {
		want, err := q.Execute(r, "feature")
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, q.SQL("r"), got[i], want)
	}
}

// TestFusedPlanCacheConcurrent hammers one shared executor's fused batch
// entry points from many goroutines over overlapping pools, so the race
// detector can see the plan-group, mask and scratch machinery under
// contention; every result is checked against the Query.Augment oracle.
func TestFusedPlanCacheConcurrent(t *testing.T) {
	r := largeRandomTable(300, 51)
	d := largeRandomTable(120, 52)
	rng := rand.New(rand.NewSource(53))
	pool := randomPool(rng, 60)

	baseVals := make([][]float64, len(pool))
	baseValid := make([][]bool, len(pool))
	for i, q := range pool {
		baseVals[i], baseValid[i] = oracleFeature(t, q, d, r)
	}

	shared := NewExecutor(r)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker slides a different window over the pool, so plan
			// groups are built and hit concurrently.
			qs := pool[w%7 : 30+len(pool)%(w+3)]
			for iter := 0; iter < 4; iter++ {
				vals, valid, err := shared.AugmentValuesBatch(d, qs)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range qs {
					bi := w%7 + i
					for row := range vals[i] {
						if vals[i][row] != baseVals[bi][row] || valid[i][row] != baseValid[bi][row] {
							t.Errorf("worker %d query %d row %d: got (%v,%v), want (%v,%v)",
								w, i, row, vals[i][row], valid[i][row], baseVals[bi][row], baseValid[bi][row])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestMaskCacheBounded feeds more distinct WHERE masks than the cache bound
// and requires correct results throughout plus a recorded eviction — the
// serving-path guard against unbounded growth.
func TestMaskCacheBounded(t *testing.T) {
	r := largeRandomTable(200, 61)
	ex := NewExecutor(r)
	check := Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"},
		Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0}}}
	want, err := check.Execute(r, "feature")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= maxMaskEntries+8; i++ {
		q := Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "ts", Kind: PredRange, HasLo: true, Lo: float64(i)}}}
		if _, err := ex.ExecuteBatch([]Query{q, check}, "feature"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ex.Execute(check, "feature")
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "post-eviction", got, want)
	st := ex.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected at least one bounded-cache eviction: %+v", st)
	}
}

// TestPR1BaselineMatchesFused keeps the benchmark's PR 1 baseline honest: it
// must produce row-for-row identical results to the fused path on the exact
// benchmark pool, so the reported speedup compares equal work.
func TestPR1BaselineMatchesFused(t *testing.T) {
	r, _, qs := fusedBenchPool(200, 600)
	fused := NewExecutor(r)
	got, err := fused.ExecuteBatch(qs, "feature")
	if err != nil {
		t.Fatal(err)
	}
	pr1 := newPR1Executor(r)
	for i, q := range qs {
		want, err := pr1.execute(q, "feature")
		if err != nil {
			t.Fatalf("%s: %v", q.SQL("r"), err)
		}
		sameTable(t, q.SQL("r"), got[i], want)
	}
}

// TestExecutorStatsCounters sanity-checks the snapshot arithmetic: a cold
// batch misses, a warm identical batch hits.
func TestExecutorStatsCounters(t *testing.T) {
	r := largeRandomTable(200, 71)
	ex := NewExecutor(r)
	qs := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
		{Agg: agg.Avg, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
	}
	if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.PlanMisses != 1 || st.MaskMisses != 1 || st.GroupMisses != 1 {
		t.Fatalf("cold counters off: %+v", st)
	}
	if st.FusedQueries != 2 {
		t.Fatalf("want 2 fused queries, got %+v", st)
	}
	if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	st = ex.Stats()
	if st.PlanHits == 0 || st.PlanMisses != 1 {
		t.Fatalf("warm counters off: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

// TestSingleQueryReusesBatchPlan pins the single-query entry points to the
// fused path: after a batch has scanned a plan group, a lone Execute or
// AugmentValues on that group is a plan-cache hit served from the retained
// attribute state — no new discovery or attribute scan — and stays
// bit-identical to the Query.Execute / Query.Augment oracles.
func TestSingleQueryReusesBatchPlan(t *testing.T) {
	r := largeRandomTable(400, 81)
	d := dupKeyTrainTable(120, 82)
	preds := []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}
	batch := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}, Preds: preds},
		{Agg: agg.Median, AggAttr: "ts", Keys: []string{"k1"}, Preds: preds},
	}
	ex := NewExecutor(r)
	if _, err := ex.ExecuteBatch(batch, "feature"); err != nil {
		t.Fatal(err)
	}
	before := ex.Stats()

	single := Query{Agg: agg.Avg, AggAttr: "x", Keys: []string{"k1"}, Preds: preds}
	got, err := ex.Execute(single, "feature")
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Execute(r, "feature")
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, single.SQL("r"), got, want)

	lone := Query{Agg: agg.MAD, AggAttr: "ts", Keys: []string{"k1"}, Preds: preds}
	gotV, gotOK, err := ex.AugmentValues(d, lone)
	if err != nil {
		t.Fatal(err)
	}
	wantV, wantOK := oracleFeature(t, lone, d, r)
	sameFeature(t, lone.SQL("r"), gotV, wantV, gotOK, wantOK)

	after := ex.Stats()
	if after.PlanMisses != before.PlanMisses || after.PlanHits != before.PlanHits+2 {
		t.Errorf("plans %d hits / %d misses after the single queries, want %d / %d",
			after.PlanHits, after.PlanMisses, before.PlanHits+2, before.PlanMisses)
	}
	if after.FusedScans != before.FusedScans {
		t.Errorf("FusedScans %d -> %d: single queries rescanned attributes the batch retained",
			before.FusedScans, after.FusedScans)
	}
	if after.FusedQueries != before.FusedQueries+2 || after.CoreQueries != 0 {
		t.Errorf("fused %d / core %d queries, want %d / 0",
			after.FusedQueries, after.CoreQueries, before.FusedQueries+2)
	}
}
