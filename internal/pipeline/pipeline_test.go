package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/query"
)

func problemFrom(t *testing.T, d *datagen.Dataset) Problem {
	t.Helper()
	return Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		BaseFeatures: d.BaseFeatures,
	}
}

func tmallProblem(t *testing.T) Problem {
	t.Helper()
	return problemFrom(t, datagen.Tmall(datagen.Options{TrainRows: 300, LogsPerKey: 8, Seed: 21}))
}

func TestProblemValidate(t *testing.T) {
	p := tmallProblem(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Label = "ghost"
	if bad.Validate() == nil {
		t.Error("missing label should fail")
	}
	bad = p
	bad.Keys = nil
	if bad.Validate() == nil {
		t.Error("missing keys should fail")
	}
	bad = p
	bad.Keys = []string{"ghost"}
	if bad.Validate() == nil {
		t.Error("unknown key should fail")
	}
	bad = p
	bad.Train = nil
	if bad.Validate() == nil {
		t.Error("nil table should fail")
	}
	bad = p
	bad.AggAttrs = append([]string{"ghost_agg"}, p.AggAttrs...)
	if bad.Validate() == nil {
		t.Error("aggregation attribute missing from relevant table should fail")
	}
	bad = p
	bad.PredAttrs = append([]string{"ghost_pred"}, p.PredAttrs...)
	if bad.Validate() == nil {
		t.Error("predicate attribute missing from relevant table should fail")
	}
	bad = p
	bad.BaseFeatures = append([]string{bad.Label}, p.BaseFeatures...)
	if bad.Validate() == nil {
		t.Error("label listed as base feature should fail (target leak)")
	}
}

func TestProblemNormalized(t *testing.T) {
	p := tmallProblem(t)
	p.PredAttrs = nil
	n := p.Normalized()
	if !reflect.DeepEqual(n.PredAttrs, p.AggAttrs) {
		t.Fatalf("empty PredAttrs should default to AggAttrs, got %v", n.PredAttrs)
	}
	if len(p.PredAttrs) != 0 {
		t.Fatal("Normalized mutated the receiver")
	}
	// Explicit PredAttrs are left alone, and the defaulted slice is a copy.
	explicit := tmallProblem(t).Normalized()
	if !reflect.DeepEqual(explicit.PredAttrs, tmallProblem(t).PredAttrs) {
		t.Fatal("non-empty PredAttrs should be untouched")
	}
	n.PredAttrs[0] = "mutated"
	if p.AggAttrs[0] == "mutated" {
		t.Fatal("defaulted PredAttrs aliases AggAttrs")
	}
	// NewEvaluator applies the rule, so an evaluator built from an empty
	// PredAttrs problem carries the defaulted set.
	ev, err := NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev.P.PredAttrs, p.AggAttrs) {
		t.Fatalf("evaluator PredAttrs = %v, want defaulted AggAttrs", ev.P.PredAttrs)
	}
}

func TestNewEvaluatorRejectsBadProblem(t *testing.T) {
	p := tmallProblem(t)
	p.Label = "ghost"
	if _, err := NewEvaluator(p, ml.KindLR, 1); err == nil {
		t.Fatal("bad problem should fail")
	}
}

func TestLabelsAndYFloat(t *testing.T) {
	p := tmallProblem(t)
	labels := p.Labels()
	y := p.YFloat()
	if len(labels) != p.Train.NumRows() || len(y) != len(labels) {
		t.Fatal("length mismatch")
	}
	for i := range labels {
		if float64(labels[i]) != y[i] {
			t.Fatal("binary labels should match float labels")
		}
	}
}

func TestFeatureCaching(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Agg: agg.Count, AggAttr: "price", Keys: ev.P.Keys}
	v1, _, err := ev.Feature(q)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := ev.Feature(q)
	if err != nil {
		t.Fatal(err)
	}
	if &v1[0] != &v2[0] {
		t.Fatal("second call should hit the cache (same backing array)")
	}
}

func TestFeatureBatchMatchesFeature(t *testing.T) {
	p := tmallProblem(t)
	evBatch, err := NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	evSingle, err := NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := []query.Query{
		{Agg: agg.Count, AggAttr: "price", Keys: p.Keys},
		{Agg: agg.Avg, AggAttr: "price", Keys: p.Keys,
			Preds: []query.Predicate{{Attr: "action", Kind: query.PredEq, StrValue: "buy"}}},
		{Agg: agg.Sum, AggAttr: "price", Keys: p.Keys,
			Preds: []query.Predicate{{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 3000, HasHi: true, Hi: 8000}}},
		// Duplicate of the first query: must come back from the cache.
		{Agg: agg.Count, AggAttr: "price", Keys: p.Keys},
	}
	bv, bok, err := evBatch.FeatureBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bv) != len(qs) || len(bok) != len(qs) {
		t.Fatalf("batch sizes %d/%d, want %d", len(bv), len(bok), len(qs))
	}
	for i, q := range qs {
		sv, sok, err := evSingle.Feature(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(bv[i]) != len(sv) {
			t.Fatalf("query %d: %d rows vs %d", i, len(bv[i]), len(sv))
		}
		for r := range sv {
			if bok[i][r] != sok[r] || (sok[r] && bv[i][r] != sv[r]) {
				t.Fatalf("query %d row %d: batch (%v,%v) vs single (%v,%v)",
					i, r, bv[i][r], bok[i][r], sv[r], sok[r])
			}
		}
	}
	if &bv[0][0] != &bv[3][0] {
		t.Fatal("duplicate queries in one batch should share the cached feature")
	}
}

func TestProxyScores(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	signal := query.Query{
		Agg: agg.Count, AggAttr: "price", Keys: ev.P.Keys,
		Preds: []query.Predicate{
			{Attr: "action", Kind: query.PredEq, StrValue: "buy"},
			{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 5000},
		},
	}
	noiseQ := query.Query{Agg: agg.Avg, AggAttr: "price", Keys: ev.P.Keys,
		Preds: []query.Predicate{{Attr: "brand", Kind: query.PredEq, StrValue: "b0"}}}
	for _, kind := range []ProxyKind{ProxyMI, ProxySC} {
		s, err := ev.ProxyScore(signal, kind)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ev.ProxyScore(noiseQ, kind)
		if err != nil {
			t.Fatal(err)
		}
		if s <= n {
			t.Errorf("%s: signal score %v should beat noise %v", kind, s, n)
		}
	}
	if _, err := ev.ProxyScore(signal, ProxyLR); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ProxyScore(signal, ProxyKind(9)); err == nil {
		t.Fatal("unknown proxy should fail")
	}
	if ev.ProxyEvaluations == 0 {
		t.Fatal("proxy evaluations not counted")
	}
}

func TestProxyKindString(t *testing.T) {
	if ProxyMI.String() != "MI" || ProxySC.String() != "SC" || ProxyLR.String() != "LR" {
		t.Fatal("proxy names wrong")
	}
	if ProxyKind(9).String() != "ProxyKind(9)" {
		t.Fatal("unknown proxy name wrong")
	}
}

func TestQueryLossCachesAndCounts(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Agg: agg.Count, AggAttr: "price", Keys: ev.P.Keys}
	l1, err := ev.QueryLoss(q)
	if err != nil {
		t.Fatal(err)
	}
	evals, fitTime := ev.Evaluations, ev.FitTime
	if fitTime <= 0 {
		t.Fatalf("FitTime = %v after a real evaluation", fitTime)
	}
	l2, err := ev.QueryLoss(q)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("cached loss differs")
	}
	if ev.Evaluations != evals || ev.FitTime != fitTime {
		t.Fatal("cache miss on repeated query")
	}
	if l1 < 0 || l1 > 1 {
		t.Fatalf("binary loss %v out of [0,1]", l1)
	}
}

func TestSignalQueryBeatsNoiseOnRealLoss(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	signal := query.Query{
		Agg: agg.Count, AggAttr: "price", Keys: ev.P.Keys,
		Preds: []query.Predicate{
			{Attr: "action", Kind: query.PredEq, StrValue: "buy"},
			{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 5000},
		},
	}
	noise := query.Query{Agg: agg.Avg, AggAttr: "price", Keys: ev.P.Keys,
		Preds: []query.Predicate{{Attr: "brand", Kind: query.PredEq, StrValue: "b3"}}}
	ls, err := ev.QueryLoss(signal)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := ev.QueryLoss(noise)
	if err != nil {
		t.Fatal(err)
	}
	if ls >= ln {
		t.Fatalf("signal loss %v should beat noise loss %v", ls, ln)
	}
}

func TestQuerySetScoresAndBaseline(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := []query.Query{
		{Agg: agg.Count, AggAttr: "price", Keys: ev.P.Keys,
			Preds: []query.Predicate{
				{Attr: "action", Kind: query.PredEq, StrValue: "buy"},
				{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 5000},
			}},
		{Agg: agg.Avg, AggAttr: "price", Keys: ev.P.Keys},
	}
	valid, test, err := ev.QuerySetScores(qs)
	if err != nil {
		t.Fatal(err)
	}
	if valid <= 0 || valid > 1 || test <= 0 || test > 1 {
		t.Fatalf("scores out of range: %v %v", valid, test)
	}
	bv, bt, err := ev.BaselineScores()
	if err != nil {
		t.Fatal(err)
	}
	if bv <= 0 || bt <= 0 {
		t.Fatal("baseline scores missing")
	}
	// The signal feature set should beat base features alone.
	if valid <= bv {
		t.Fatalf("augmented valid AUC %v should beat baseline %v", valid, bv)
	}
}

func TestBaselineScoresRequiresBaseFeatures(t *testing.T) {
	p := tmallProblem(t)
	p.BaseFeatures = nil
	ev, err := NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.BaselineScores(); err == nil {
		t.Fatal("no base features should fail")
	}
}

func TestRegressionProblemLoss(t *testing.T) {
	d := datagen.Merchant(datagen.Options{TrainRows: 300, LogsPerKey: 8, Seed: 22})
	ev, err := NewEvaluator(problemFrom(t, d), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{
		Agg: agg.Sum, AggAttr: "purchase_amount", Keys: ev.P.Keys,
		Preds: []query.Predicate{
			{Attr: "month_lag", Kind: query.PredRange, HasLo: true, Lo: -2},
			{Attr: "approved", Kind: query.PredEq, BoolValue: true},
		},
	}
	loss, err := ev.QueryLoss(q)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("RMSE loss should be positive, got %v", loss)
	}
	plain := query.Query{Agg: agg.Sum, AggAttr: "purchase_amount", Keys: ev.P.Keys}
	plainLoss, err := ev.QueryLoss(plain)
	if err != nil {
		t.Fatal(err)
	}
	if loss >= plainLoss {
		t.Fatalf("predicated RMSE %v should beat plain %v", loss, plainLoss)
	}
}

func TestQueryLossPropagatesExecutionErrors(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := query.Query{Agg: agg.Count, AggAttr: "ghost", Keys: ev.P.Keys}
	if _, err := ev.QueryLoss(bad); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, _, err := ev.Feature(bad); err == nil {
		t.Fatal("bad feature should fail")
	}
}

func TestDegenerateFeatureGetsSentinelLoss(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	// SUM over a string column yields an all-NULL feature.
	q := query.Query{Agg: agg.Sum, AggAttr: "action", Keys: ev.P.Keys}
	loss, err := ev.QueryLoss(q)
	if err != nil {
		t.Fatal(err)
	}
	if loss != DegenerateLoss {
		t.Fatalf("all-NULL feature loss = %v, want sentinel", loss)
	}
	// Cached on second call too.
	loss2, _ := ev.QueryLoss(q)
	if loss2 != DegenerateLoss {
		t.Fatal("sentinel not cached")
	}
}

func TestDegenerateHelper(t *testing.T) {
	if !degenerate([]float64{1, 1, 1}, []bool{true, true, true}) {
		t.Error("constant should be degenerate")
	}
	if !degenerate([]float64{0, 0}, []bool{false, false}) {
		t.Error("all-NULL should be degenerate")
	}
	if degenerate([]float64{1, 2}, []bool{true, true}) {
		t.Error("varying should not be degenerate")
	}
	if !degenerate(nil, nil) {
		t.Error("empty should be degenerate")
	}
}

// The LR proxy trains a model, but it is a proxy computation: it counts in
// ProxyEvaluations only, never in the downstream-model cost unit.
func TestLRProxyIsNotAModelEvaluation(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindXGB, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Agg: agg.Count, AggAttr: "price", Keys: ev.P.Keys}
	if _, err := ev.ProxyScore(q, ProxyLR); err != nil {
		t.Fatal(err)
	}
	if ev.Evaluations != 0 || ev.FitTime != 0 {
		t.Fatalf("LR proxy counted as a model evaluation: Evaluations %d, FitTime %v", ev.Evaluations, ev.FitTime)
	}
	if ev.ProxyEvaluations != 1 {
		t.Fatalf("ProxyEvaluations = %d, want 1", ev.ProxyEvaluations)
	}
}

// concurrencyQueries is 50 distinct candidate queries over the tmall
// problem, some of them degenerate (SUM over a string column is all-NULL).
func concurrencyQueries(keys []string) []query.Query {
	preds := [][]query.Predicate{
		nil,
		{{Attr: "action", Kind: query.PredEq, StrValue: "buy"}},
		{{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 5000}},
		{{Attr: "action", Kind: query.PredEq, StrValue: "click"},
			{Attr: "timestamp", Kind: query.PredRange, HasHi: true, Hi: 6000}},
		{{Attr: "brand", Kind: query.PredEq, StrValue: "b0"}},
	}
	var qs []query.Query
	for _, f := range agg.Basic() {
		for _, attr := range []string{"price", "action"} {
			for _, p := range preds {
				qs = append(qs, query.Query{Agg: f, AggAttr: attr, Keys: keys, Preds: p})
			}
		}
	}
	return qs
}

// Concurrent callers over the same queries must see exactly what one
// sequential caller sees: the same losses, one model fit per distinct
// non-degenerate query, and one materialisation per distinct query.
func TestEvaluatorConcurrentUse(t *testing.T) {
	p := tmallProblem(t)
	qs := concurrencyQueries(p.Keys)
	seq, err := NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(qs))
	nonDegenerate := 0
	for i, q := range qs {
		if want[i], err = seq.QueryLoss(q); err != nil {
			t.Fatal(err)
		}
		if want[i] != DegenerateLoss {
			nonDegenerate++
		}
		if _, err := seq.ProxyScore(q, ProxyMI); err != nil {
			t.Fatal(err)
		}
	}
	if nonDegenerate == 0 || nonDegenerate == len(qs) {
		t.Fatalf("%d of %d queries non-degenerate; the test needs both kinds", nonDegenerate, len(qs))
	}

	ev, err := NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 0 {
				// One worker materialises the whole set as a batch while the
				// others ask for single features.
				if _, _, err := ev.FeatureBatch(qs); err != nil {
					errs[w] = err
					return
				}
			}
			for k := range qs {
				i := (k + w*7) % len(qs) // each worker starts elsewhere
				loss, err := ev.QueryLoss(qs[i])
				if err == nil && loss != want[i] {
					t.Errorf("worker %d query %d: loss %v, sequential %v", w, i, loss, want[i])
				}
				if err == nil {
					_, err = ev.ProxyScore(qs[i], ProxyMI)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if ev.Evaluations != nonDegenerate {
		t.Fatalf("Evaluations = %d, want %d (one per distinct non-degenerate query)", ev.Evaluations, nonDegenerate)
	}
	if ev.ProxyEvaluations != workers*len(qs) {
		t.Fatalf("ProxyEvaluations = %d, want %d", ev.ProxyEvaluations, workers*len(qs))
	}
	if got, seqN := ev.Executor().Stats().FusedQueries, seq.Executor().Stats().FusedQueries; got != seqN {
		t.Fatalf("FusedQueries = %d, sequential %d: some query was materialised twice", got, seqN)
	}
}

// A batch cancelled mid-flight leaves nothing stale behind: the same
// queries materialise normally afterwards, singly or batched.
func TestFeatureBatchRetriesAfterCancel(t *testing.T) {
	ev, err := NewEvaluator(tmallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := concurrencyQueries(ev.P.Keys)[:6]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ev.FeatureBatchContext(ctx, qs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
	}
	if _, _, err := ev.Feature(qs[0]); err != nil {
		t.Fatalf("single feature after a cancelled batch: %v", err)
	}
	if _, _, err := ev.FeatureBatch(qs); err != nil {
		t.Fatalf("batch after a cancelled batch: %v", err)
	}
}

// TestFeatureCacheKeepsFullBoundPrecision: the feature cache is keyed by
// Query.SQL, so two range bounds that agree to ten significant digits — here
// millisecond timestamps one apart — must render distinct SQL and yield
// their own features, not share one cached entry.
func TestFeatureCacheKeepsFullBoundPrecision(t *testing.T) {
	const t0 = 1_700_000_000_000
	p := Problem{
		Train: dataframe.MustNewTable(
			dataframe.NewIntColumn("k", []int64{1, 2}, nil),
			dataframe.NewIntColumn("label", []int64{0, 1}, nil),
		),
		Relevant: dataframe.MustNewTable(
			dataframe.NewIntColumn("k", []int64{1, 1, 2, 2}, nil),
			dataframe.NewIntColumn("ms", []int64{t0, t0 + 1, t0, t0 + 2}, nil),
			dataframe.NewFloatColumn("x", []float64{1, 2, 3, 4}, nil),
		),
		Label: "label", Task: ml.Binary, Keys: []string{"k"},
		AggAttrs: []string{"x"}, PredAttrs: []string{"ms"},
	}
	ev, err := NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	at := func(lo float64) query.Query {
		return query.Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k"},
			Preds: []query.Predicate{{Attr: "ms", Kind: query.PredRange, HasLo: true, Lo: lo}}}
	}
	q1, q2 := at(t0+1), at(t0+2)
	if q1.SQL("R") == q2.SQL("R") {
		t.Fatalf("bounds %v and %v render the same SQL: %s", q1.Preds[0].Lo, q2.Preds[0].Lo, q1.SQL("R"))
	}
	v1, ok1, err := ev.Feature(q1)
	if err != nil {
		t.Fatal(err)
	}
	v2, ok2, err := ev.Feature(q2)
	if err != nil {
		t.Fatal(err)
	}
	// ms >= t0+1 keeps x = 2 (k 1) and 4 (k 2); ms >= t0+2 keeps only x = 4.
	if !ok1[0] || v1[0] != 2 || !ok1[1] || v1[1] != 4 {
		t.Errorf("%s = %v %v, want [2 4] both valid", q1.SQL("R"), v1, ok1)
	}
	if ok2[0] || !ok2[1] || v2[1] != 4 {
		t.Errorf("%s = %v %v, want [NULL 4]", q2.SQL("R"), v2, ok2)
	}
}
