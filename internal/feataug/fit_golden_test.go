package feataug

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// fitGoldenCase is one pinned Fit configuration on a 150-row student problem,
// or, with split set, one pinned FitMulti on a 150-row tmall problem whose
// relevant table is split by the values of that column.
type fitGoldenCase struct {
	name  string
	model ml.Kind
	cfg   Config
	split string
}

// fitGoldenCounts are the evaluator's work counters after a pinned fit.
type fitGoldenCounts struct {
	Evaluations      int `json:"evaluations"`
	ProxyEvaluations int `json:"proxy_evaluations"`
}

func fitGoldenCases() []fitGoldenCase {
	seeds := []query.Query{
		// No predicates: expressible in every template's pool.
		{Agg: agg.Count, AggAttr: "hover_duration", Keys: []string{"session_id"}},
		// Expressible only in templates whose WHERE clause covers event_name.
		{Agg: agg.Avg, AggAttr: "elapsed_time", Keys: []string{"session_id"},
			Preds: []query.Predicate{{Attr: "event_name", Kind: query.PredEq, StrValue: "map_click"}}},
	}
	return []fitGoldenCase{
		{name: "student_xgb", model: ml.KindXGB, cfg: Config{Seed: 1}},
		{name: "student_rf", model: ml.KindRF, cfg: Config{Seed: 1}},
		{name: "student_nowu_seeds", model: ml.KindLR,
			cfg: Config{Seed: 1, DisableWarmup: true, SeedQueries: seeds}},
		{name: "student_noqti", model: ml.KindLR, cfg: Config{Seed: 1, DisableQTI: true}},
		{name: "tmall_split_action", model: ml.KindLR, cfg: multiTestConfig(), split: "action"},
	}
}

func studentGoldenProblem() pipeline.Problem {
	d := datagen.Student(datagen.Options{TrainRows: 150, Seed: 1})
	return pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		BaseFeatures: d.BaseFeatures,
	}
}

// runGoldenFit runs the steps Fit runs, keeping the evaluator so its work
// counters can be compared too. A split case runs FitMulti, whose evaluators
// stay internal, and reports zero counts.
func runGoldenFit(t *testing.T, c fitGoldenCase) ([]byte, fitGoldenCounts) {
	t.Helper()
	if c.split != "" {
		return runGoldenFitMulti(t, c), fitGoldenCounts{}
	}
	p := studentGoldenProblem()
	ev, err := pipeline.NewEvaluator(p, c.model, c.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(ev, nil, c.cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := NewPlan(p, res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n'), fitGoldenCounts{Evaluations: ev.Evaluations, ProxyEvaluations: ev.ProxyEvaluations}
}

// runGoldenFitMulti fits a multi-table plan over the tmall relevant table
// split by c.split, one source per split value, with the split column dropped
// from the predicate attributes (the cmd/feataug split scenario).
func runGoldenFitMulti(t *testing.T, c fitGoldenCase) []byte {
	t.Helper()
	d := datagen.Tmall(datagen.Options{TrainRows: 150, Seed: 1})
	base := pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		BaseFeatures: d.BaseFeatures,
	}
	var predAttrs []string
	for _, a := range d.PredAttrs {
		if a != c.split {
			predAttrs = append(predAttrs, a)
		}
	}
	values, err := SplitValues(d.Relevant, c.split)
	if err != nil {
		t.Fatal(err)
	}
	parts, _, err := SplitByValue(d.Relevant, c.split, values)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]RelevantInput, len(values))
	for i, v := range values {
		inputs[i] = RelevantInput{Name: v, Table: parts[v], Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: predAttrs}
	}
	plan, err := FitMulti(context.Background(), base, inputs,
		WithConfig(c.cfg), WithModel(c.model), WithAggFuncs(agg.Basic()...))
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestFitPlansPinned pins whole Fit runs: the plan bytes and the evaluator's
// work counters of four Fit configurations, and the plan of one
// split-scenario FitMulti, must match checked-in fixtures at every
// GOMAXPROCS, so running the template searches concurrently can never change
// what a fit learns. The RF case also pins classification CART, whose Gini
// counts are exact, so no tie order among equal values can move it.
// Regenerate (only for a deliberate plan change) with UPDATE_GOLDEN=1 go test
// ./internal/feataug -run TestFitPlansPinned.
func TestFitPlansPinned(t *testing.T) {
	countsPath := filepath.Join("testdata", "fit_golden_counts.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		counts := map[string]fitGoldenCounts{}
		for _, c := range fitGoldenCases() {
			data, n := runGoldenFit(t, c)
			if err := os.WriteFile(filepath.Join("testdata", "fit_golden_"+c.name+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if c.split == "" {
				counts[c.name] = n
			}
		}
		data, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(countsPath)
	if err != nil {
		t.Fatal(err)
	}
	var wantCounts map[string]fitGoldenCounts
	if err := json.Unmarshal(raw, &wantCounts); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range fitGoldenCases() {
			golden := filepath.Join("testdata", "fit_golden_"+c.name+".json")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			got, counts := runGoldenFit(t, c)
			if !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d %s: plan diverged from %s:\n--- got ---\n%s\n--- want ---\n%s",
					procs, c.name, golden, got, want)
			}
			if counts != wantCounts[c.name] {
				t.Errorf("GOMAXPROCS=%d %s: counts %+v, want %+v", procs, c.name, counts, wantCounts[c.name])
			}
		}
	}
}
