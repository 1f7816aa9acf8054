package feataug

import (
	"context"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// smallProblem builds a scaled-down tmall problem for fast engine tests.
func smallProblem(t *testing.T) pipeline.Problem {
	t.Helper()
	d := datagen.Tmall(datagen.Options{TrainRows: 250, LogsPerKey: 8, Seed: 11})
	return pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs[:3],
		BaseFeatures: d.BaseFeatures,
	}
}

func smallEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	ev, err := pipeline.NewEvaluator(smallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Tiny budgets so the suite stays fast.
	if cfg.WarmupIters == 0 {
		cfg.WarmupIters = 15
	}
	if cfg.WarmupTopK == 0 {
		cfg.WarmupTopK = 4
	}
	if cfg.GenIters == 0 {
		cfg.GenIters = 5
	}
	if cfg.TemplateProxyIters == 0 {
		cfg.TemplateProxyIters = 8
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 2
	}
	if cfg.NumTemplates == 0 {
		cfg.NumTemplates = 3
	}
	if cfg.QueriesPerTemplate == 0 {
		cfg.QueriesPerTemplate = 2
	}
	return NewEngine(ev, agg.Basic(), cfg)
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.WarmupIters != DefaultWarmupIters || c.NumTemplates != DefaultNumTemplates ||
		c.BeamWidth != DefaultBeamWidth || c.MaxDepth != DefaultMaxDepth {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.NoWarmupIters != c.WarmupTopK+c.GenIters {
		t.Fatalf("NoWarmupIters = %d, want topK+gen = %d", c.NoWarmupIters, c.WarmupTopK+c.GenIters)
	}
}

func TestEngineDefaultsToFullFunctionSet(t *testing.T) {
	ev, err := pipeline.NewEvaluator(smallProblem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ev, nil, Config{Seed: 1})
	if len(e.Funcs) != 15 {
		t.Fatalf("default funcs = %d, want 15", len(e.Funcs))
	}
}

func TestGenerateQueriesReturnsDistinctSorted(t *testing.T) {
	e := smallEngine(t, Config{})
	tpl := e.Template([]string{"action", "timestamp"})
	qs, err := e.GenerateQueries(context.Background(), tpl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 || len(qs) > 3 {
		t.Fatalf("got %d queries", len(qs))
	}
	seen := map[string]bool{}
	for i, gq := range qs {
		key := gq.Query.SQL("R")
		if seen[key] {
			t.Fatalf("duplicate query %s", key)
		}
		seen[key] = true
		if i > 0 && qs[i-1].Loss > gq.Loss {
			t.Fatal("queries not sorted by loss")
		}
	}
}

func TestGenerateQueriesNoWarmup(t *testing.T) {
	e := smallEngine(t, Config{DisableWarmup: true, NoWarmupIters: 8})
	tpl := e.Template([]string{"action"})
	qs, err := e.GenerateQueries(context.Background(), tpl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("no queries")
	}
}

func TestGenerateQueriesBadTemplate(t *testing.T) {
	e := smallEngine(t, Config{})
	tpl := e.Template([]string{"ghost"})
	if _, err := e.GenerateQueries(context.Background(), tpl, 2); err == nil {
		t.Fatal("bad template should fail")
	}
}

func TestIdentifyTemplatesShape(t *testing.T) {
	e := smallEngine(t, Config{})
	got, err := e.IdentifyTemplates(context.Background(), []string{"action", "category", "timestamp"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 4 {
		t.Fatalf("got %d templates", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Score < got[i].Score {
			t.Fatal("templates not sorted best-first")
		}
	}
	// Combos must be distinct.
	seen := map[string]bool{}
	for _, ts := range got {
		k := query.CanonicalAttrKey(ts.PredAttrs)
		if seen[k] {
			t.Fatalf("duplicate combo %v", ts.PredAttrs)
		}
		seen[k] = true
		if len(ts.PredAttrs) == 0 || len(ts.PredAttrs) > 2 { // MaxDepth 2
			t.Fatalf("combo size %d out of range", len(ts.PredAttrs))
		}
	}
}

func TestIdentifyTemplatesEmptyAttrs(t *testing.T) {
	e := smallEngine(t, Config{})
	if _, err := e.IdentifyTemplates(context.Background(), nil, 2); err == nil {
		t.Fatal("empty attrs should fail")
	}
}

func TestIdentifyTemplatesWithoutOptimisations(t *testing.T) {
	// Opt1 off: real evaluations drive template scoring (slow path, tiny
	// budget). Opt2 off: all children proxy-evaluated.
	e := smallEngine(t, Config{DisableProxyOpt: true, DisablePredictor: true, TemplateProxyIters: 4})
	got, err := e.IdentifyTemplates(context.Background(), []string{"action", "category"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no templates")
	}
}

func TestIdentifyTemplatesPicksSignalAttribute(t *testing.T) {
	// In the tmall generator the signal is on action+timestamp; the noise
	// attribute "brand" should not win the top slot.
	e := smallEngine(t, Config{TemplateProxyIters: 15, MaxDepth: 1})
	got, err := e.IdentifyTemplates(context.Background(), []string{"action", "brand", "timestamp"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].PredAttrs[0] == "brand" {
		t.Fatalf("noise attribute won QTI: %+v", got)
	}
}

func TestRunFullPipeline(t *testing.T) {
	e := smallEngine(t, Config{})
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) == 0 {
		t.Fatal("no queries generated")
	}
	if len(res.FeatureNames) != len(res.Queries) {
		t.Fatal("feature names should match queries")
	}
	for _, name := range res.FeatureNames {
		if !res.Augmented.HasColumn(name) {
			t.Fatalf("augmented table missing %s", name)
		}
		if !strings.HasPrefix(name, "feataug_") {
			t.Fatalf("unexpected feature name %s", name)
		}
	}
	if res.Augmented.NumRows() != e.eval.P.Train.NumRows() {
		t.Fatal("augmentation changed row count")
	}
	if res.Timing.Total() <= 0 {
		t.Fatal("timing not recorded")
	}
	if res.Timing.Warmup <= 0 {
		t.Fatal("warm-up time should be attributed when warm-up is on")
	}
	if len(res.QueryList()) != len(res.Queries) {
		t.Fatal("QueryList mismatch")
	}
}

func TestRunNoQTIUsesSingleTemplate(t *testing.T) {
	e := smallEngine(t, Config{DisableQTI: true})
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 1 {
		t.Fatalf("NoQTI should have 1 template, got %d", len(res.Templates))
	}
	if len(res.Templates[0].PredAttrs) != 3 {
		t.Fatalf("NoQTI template should use all provided attrs, got %v", res.Templates[0].PredAttrs)
	}
}

func TestRunNoWarmupTiming(t *testing.T) {
	e := smallEngine(t, Config{DisableWarmup: true, NoWarmupIters: 6, DisableQTI: true})
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Warmup != 0 {
		t.Fatal("warm-up time should be zero when warm-up is disabled")
	}
	if res.Timing.Generate <= 0 {
		t.Fatal("generate time missing")
	}
}

// TestRunTimingMeasured checks the measured phase split: warm-up is timed
// between its progress boundaries (zero when disabled, positive otherwise),
// and ModelFit is the evaluator's fit time over the run, inside the phases.
func TestRunTimingMeasured(t *testing.T) {
	for _, disable := range []bool{true, false} {
		e := smallEngine(t, Config{DisableWarmup: disable, NoWarmupIters: 6, DisableQTI: true})
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Timing
		if disable && tm.Warmup != 0 {
			t.Fatalf("DisableWarmup: Warmup = %v, want 0", tm.Warmup)
		}
		if !disable && tm.Warmup <= 0 {
			t.Fatalf("Warmup = %v, want > 0", tm.Warmup)
		}
		if tm.Generate <= 0 {
			t.Fatalf("DisableWarmup=%v: Generate = %v, want > 0", disable, tm.Generate)
		}
		if tm.ModelFit <= 0 || tm.ModelFit != e.eval.FitTime {
			t.Fatalf("DisableWarmup=%v: ModelFit = %v, evaluator fit time %v", disable, tm.ModelFit, e.eval.FitTime)
		}
		if tm.ModelFit > tm.Total() {
			t.Fatalf("DisableWarmup=%v: ModelFit %v exceeds the phases' total %v", disable, tm.ModelFit, tm.Total())
		}
	}
}

func TestRidgePredictor(t *testing.T) {
	// y = 2*x0 - x1 + 1
	X := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}}
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = 2*x[0] - x[1] + 1
	}
	r := newRidge(1e-6)
	if err := r.fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := r.predict([]float64{3, 1})
	if diff := pred - 6; diff > 0.1 || diff < -0.1 {
		t.Fatalf("ridge prediction = %v, want ~6", pred)
	}
	if err := r.fit(nil, nil); err == nil {
		t.Fatal("empty fit should fail")
	}
}

func TestRidgeHandlesCollinearViaRegularisation(t *testing.T) {
	// Two identical columns: OLS would be singular; ridge must not fail.
	X := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	y := []float64{2, 4, 6}
	r := newRidge(1e-2)
	if err := r.fit(X, y); err != nil {
		t.Fatal(err)
	}
	if p := r.predict([]float64{4, 4}); p < 6 || p > 10 {
		t.Fatalf("collinear prediction = %v", p)
	}
}

func TestSolveSingular(t *testing.T) {
	if _, err := solve([][]float64{{0, 0, 1}, {0, 0, 1}}); err == nil {
		t.Fatal("singular system should fail")
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() []string {
		e := smallEngine(t, Config{Seed: 42})
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var sqls []string
		for _, q := range res.Queries {
			sqls = append(sqls, q.Query.SQL("R"))
		}
		return sqls
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func TestSeedQueriesPrimeTheSearch(t *testing.T) {
	// Seed the planted signal query; it must appear in the results even with
	// a minimal search budget, because seeds are evaluated up-front.
	seed := query.Query{
		Agg: agg.Count, AggAttr: "price", Keys: []string{"user_id", "merchant_id"},
		Preds: []query.Predicate{
			{Attr: "action", Kind: query.PredEq, StrValue: "buy"},
		},
	}
	e := smallEngine(t, Config{SeedQueries: []query.Query{seed}, WarmupIters: 5, WarmupTopK: 2, GenIters: 2})
	tpl := e.Template([]string{"action"})
	qs, err := e.GenerateQueries(context.Background(), tpl, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, gq := range qs {
		if gq.Query.SQL("R") == seed.SQL("R") {
			found = true
		}
	}
	if !found {
		t.Fatal("seed query missing from results")
	}
}

func TestSeedQueriesOutsideTemplateSkipped(t *testing.T) {
	bad := query.Query{Agg: agg.Count, AggAttr: "ghost", Keys: []string{"user_id"}}
	e := smallEngine(t, Config{SeedQueries: []query.Query{bad}, DisableWarmup: true, NoWarmupIters: 4})
	tpl := e.Template([]string{"action"})
	if _, err := e.GenerateQueries(context.Background(), tpl, 2); err != nil {
		t.Fatalf("inexpressible seed should be skipped, got %v", err)
	}
}
