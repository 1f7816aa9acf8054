package baselines

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

func problem(t *testing.T) pipeline.Problem {
	t.Helper()
	d := datagen.Tmall(datagen.Options{TrainRows: 250, LogsPerKey: 6, Seed: 31})
	return pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs[:3], PredAttrs: d.PredAttrs[:3],
		BaseFeatures: d.BaseFeatures,
	}
}

func evaluator(t *testing.T) *pipeline.Evaluator {
	t.Helper()
	e, err := pipeline.NewEvaluator(problem(t), ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDFSEnumeration(t *testing.T) {
	p := problem(t)
	qs := DFS(p, agg.Basic())
	// AggAttrs[:3] = price (float), timestamp (time), action (string).
	// 5 basic funcs apply to numeric; only COUNT supports strings among
	// Basic(); so 5+5+1 = 11.
	if len(qs) != 11 {
		t.Fatalf("DFS produced %d queries, want 11", len(qs))
	}
	for _, q := range qs {
		if len(q.Preds) != 0 {
			t.Fatal("DFS queries must be predicate-free")
		}
		if len(q.Keys) != 2 {
			t.Fatal("DFS queries must group by the full key")
		}
	}
	if len(Featuretools(p, agg.Basic())) != 11 {
		t.Fatal("Featuretools should match DFS")
	}
	if got := DFS(p, nil); len(got) == 0 {
		t.Fatal("nil funcs should default to All()")
	}
}

func TestDFSQueriesExecute(t *testing.T) {
	p := problem(t)
	e := evaluator(t)
	for _, q := range DFS(p, agg.Basic()) {
		if _, _, err := e.Feature(q); err != nil {
			t.Fatalf("%s: %v", q.SQL("R"), err)
		}
	}
}

func TestRandomBaseline(t *testing.T) {
	p := problem(t)
	qs, err := Random(p, agg.Basic(), 3, 2, query.SpaceOptions{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 6 {
		t.Fatalf("Random produced %d queries, want 6", len(qs))
	}
	// deterministic given seed
	qs2, err := Random(p, agg.Basic(), 3, 2, query.SpaceOptions{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if qs[i].SQL("R") != qs2[i].SQL("R") {
			t.Fatal("Random baseline not deterministic")
		}
	}
	e := evaluator(t)
	for _, q := range qs {
		if _, _, err := e.Feature(q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectorsPickK(t *testing.T) {
	e := evaluator(t)
	cands := DFS(e.P, agg.Basic())
	for _, kind := range []SelectorKind{SelectorMI, SelectorChi2, SelectorGini, SelectorLR, SelectorGBDT} {
		got, err := SelectFeatures(e, cands, kind, 4)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(got) != 4 {
			t.Fatalf("%s returned %d features, want 4", kind, len(got))
		}
	}
}

func TestSelectorNoneKeepsAll(t *testing.T) {
	e := evaluator(t)
	cands := DFS(e.P, agg.Basic())
	got, err := SelectFeatures(e, cands, SelectorNone, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cands) {
		t.Fatal("FT (no selector) should keep everything")
	}
}

func TestWrapperSelectors(t *testing.T) {
	e := evaluator(t)
	cands := DFS(e.P, agg.Basic())[:6]
	fwd, err := SelectFeatures(e, cands, SelectorForward, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd) != 3 {
		t.Fatalf("forward returned %d", len(fwd))
	}
	bwd, err := SelectFeatures(e, cands, SelectorBackward, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bwd) != 3 {
		t.Fatalf("backward returned %d", len(bwd))
	}
}

// TestForwardSelectTiesGoToLowestIndex: candidates whose WHERE clauses match
// no relevant row all yield the same all-NULL feature, so every trial ties.
// Forward selection must then pick the lowest indices, on every run.
func TestForwardSelectTiesGoToLowestIndex(t *testing.T) {
	e := evaluator(t)
	var cands []query.Query
	for _, v := range []string{"no-such-action-a", "no-such-action-b", "no-such-action-c", "no-such-action-d"} {
		cands = append(cands, query.Query{
			Agg: agg.Count, AggAttr: "price", Keys: e.P.Keys,
			Preds: []query.Predicate{{Attr: "action", Kind: query.PredEq, StrValue: v}},
		})
	}
	for run := 0; run < 10; run++ {
		got, err := SelectFeatures(e, cands, SelectorForward, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].SQL("R") != cands[0].SQL("R") || got[1].SQL("R") != cands[1].SQL("R") {
			t.Fatalf("run %d: forward selection over tied candidates picked %v, want candidates 0 and 1", run, got)
		}
	}
}

func TestSelectorValidation(t *testing.T) {
	e := evaluator(t)
	cands := DFS(e.P, agg.Basic())
	if _, err := SelectFeatures(e, cands, SelectorMI, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := SelectFeatures(e, cands, SelectorKind(99), 3); err == nil {
		t.Error("unknown selector should fail")
	}
}

func TestChi2GiniRejectRegression(t *testing.T) {
	d := datagen.Merchant(datagen.Options{TrainRows: 250, LogsPerKey: 6, Seed: 32})
	p := pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs[:2], PredAttrs: d.PredAttrs[:2],
		BaseFeatures: d.BaseFeatures,
	}
	e, err := pipeline.NewEvaluator(p, ml.KindLR, 1)
	if err != nil {
		t.Fatal(err)
	}
	cands := DFS(p, agg.Basic())
	if _, err := SelectFeatures(e, cands, SelectorChi2, 3); err == nil {
		t.Error("Chi2 on regression should fail")
	}
	if !SelectorChi2.SupportsTask(ml.Binary) || SelectorChi2.SupportsTask(ml.Regression) {
		t.Error("SupportsTask wrong for Chi2")
	}
	if !SelectorForward.SupportsTask(ml.Regression) {
		t.Error("wrapper selectors support regression")
	}
}

func TestSelectorNames(t *testing.T) {
	names := map[SelectorKind]string{
		SelectorNone: "FT", SelectorLR: "FT+LR", SelectorGBDT: "FT+GBDT",
		SelectorMI: "FT+MI", SelectorChi2: "FT+Chi2", SelectorGini: "FT+Gini",
		SelectorForward: "FT+Forward", SelectorBackward: "FT+Backward",
		SelectorKind(99): "SelectorKind(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", int(k), k.String(), want)
		}
	}
}

func TestMISelectorPrefersInformativeFeature(t *testing.T) {
	e := evaluator(t)
	// buy-count (correlates with label through the planted signal) vs a
	// constant-ish noise feature (entropy of brand ordinals).
	informative := query.Query{Agg: agg.Count, AggAttr: "price", Keys: e.P.Keys,
		Preds: []query.Predicate{{Attr: "action", Kind: query.PredEq, StrValue: "buy"},
			{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 5000}}}
	noise := query.Query{Agg: agg.Min, AggAttr: "timestamp", Keys: e.P.Keys}
	got, err := SelectFeatures(e, []query.Query{noise, informative}, SelectorMI, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].SQL("R") != informative.SQL("R") {
		t.Fatalf("MI selector picked %s", got[0].SQL("R"))
	}
}

func TestARDA(t *testing.T) {
	e := evaluator(t)
	cands := DFS(e.P, agg.Basic())
	got, err := ARDA(e, cands, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 4 {
		t.Fatalf("ARDA returned %d features", len(got))
	}
	if _, err := ARDA(e, cands, 0, 9); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestAutoFeatureModes(t *testing.T) {
	e := evaluator(t)
	cands := DFS(e.P, agg.Basic())[:6]
	for _, mode := range []AutoFeatureMode{AutoFeatureMAB, AutoFeatureDQN} {
		got, err := AutoFeature(e, cands, 3, 10, mode, 9)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(got) == 0 || len(got) > 3 {
			t.Fatalf("%s returned %d features", mode, len(got))
		}
	}
	if _, err := AutoFeature(e, cands, 0, 5, AutoFeatureMAB, 9); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := AutoFeature(e, cands, 2, 5, AutoFeatureMode(9), 9); err == nil {
		t.Error("unknown mode should fail")
	}
	if AutoFeatureMAB.String() != "AutoFeat-MAB" || AutoFeatureDQN.String() != "AutoFeat-DQN" {
		t.Error("mode names wrong")
	}
}

func TestAutoFeatureDefaultBudget(t *testing.T) {
	e := evaluator(t)
	cands := DFS(e.P, agg.Basic())[:4]
	got, err := AutoFeature(e, cands, 2, 0, AutoFeatureMAB, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("default budget should still select features")
	}
}

func TestMaterializeError(t *testing.T) {
	e := evaluator(t)
	bad := []query.Query{{Agg: agg.Count, AggAttr: "ghost", Keys: e.P.Keys}}
	if _, err := Materialize(e, bad); err == nil {
		t.Fatal("bad query should fail")
	}
	if _, err := SelectFeatures(e, bad, SelectorMI, 1); err == nil {
		t.Fatal("selector should propagate materialise errors")
	}
	if _, err := ARDA(e, bad, 1, 1); err == nil {
		t.Fatal("ARDA should propagate errors")
	}
	if _, err := AutoFeature(e, bad, 1, 2, AutoFeatureMAB, 1); err == nil {
		t.Fatal("AutoFeature should propagate errors")
	}
}

func TestOneToOneDatasetBaselines(t *testing.T) {
	d := datagen.Household(datagen.Options{TrainRows: 300, Seed: 33})
	p := pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs[:6], PredAttrs: d.PredAttrs[:3],
		BaseFeatures: d.BaseFeatures,
	}
	e, err := pipeline.NewEvaluator(p, ml.KindRF, 1)
	if err != nil {
		t.Fatal(err)
	}
	cands := DFS(p, agg.Basic())
	got, err := ARDA(e, cands, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("ARDA empty on one-to-one dataset")
	}
	got, err = AutoFeature(e, cands[:8], 3, 8, AutoFeatureDQN, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("AutoFeature empty on one-to-one dataset")
	}
}
