package feataug

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataframe"
	"repro/internal/query"
)

// Timing splits a run's wall time the way the paper's scalability figures do
// (Figures 7–9): Query Template Identification, warm-up, and generation.
type Timing struct {
	QTI      time.Duration
	Warmup   time.Duration
	Generate time.Duration
	// ModelFit is the part of QTI, Warmup and Generate spent inside
	// downstream-model Fit calls (pipeline.Evaluator.FitTime), the paper's
	// cost unit. It is a layer of the three phases, not a fourth phase.
	ModelFit time.Duration
}

// Total returns the summed wall time of the three phases.
func (t Timing) Total() time.Duration { return t.QTI + t.Warmup + t.Generate }

// Result is the outcome of a full FeatAug run.
type Result struct {
	// Queries are the generated predicate-aware SQL queries, one feature
	// each, ordered template-major.
	Queries []GeneratedQuery
	// Templates are the identified WHERE-clause attribute combinations.
	Templates []TemplateScore
	// Augmented is the training table with every generated feature joined
	// on (columns feataug_0, feataug_1, ...).
	Augmented *dataframe.Table
	// FeatureNames are the added column names.
	FeatureNames []string
	// Timing is the per-phase wall-clock split.
	Timing Timing
}

// Run executes the full FeatAug workflow (Figure 2): identify the promising
// query templates (unless disabled), then generate queries from each
// template's pool, and augment the training table with every generated
// feature. Cancelling the context stops the search between evaluations and
// returns an error wrapping ctx.Err().
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &Result{}
	attrs := e.eval.P.PredAttrs

	var templates []TemplateScore
	fit0 := e.eval.FitTime
	t0 := time.Now()
	e.cfg.progress(StageQTI, 0, 1)
	if e.cfg.DisableQTI {
		// NoQTI ablation: the single template over all provided attributes.
		templates = []TemplateScore{{PredAttrs: append([]string(nil), attrs...)}}
	} else {
		var err error
		templates, err = e.IdentifyTemplates(ctx, attrs, e.cfg.NumTemplates)
		if err != nil {
			return nil, err
		}
	}
	e.cfg.progress(StageQTI, 1, 1)
	res.Timing.QTI = time.Since(t0)
	res.Templates = templates
	for _, ts := range templates {
		e.cfg.logf("feataug: template %v (effectiveness %.4f)", ts.PredAttrs, ts.Score)
	}

	// Generation: each template's warm-up (proxy TPE plus the priming real
	// evaluations) is timed inside generateQueries; the rest is generation.
	for ti, ts := range templates {
		e.cfg.progress(StageGenerate, ti, len(templates))
		tpl := e.Template(ts.PredAttrs)
		tGen := time.Now()
		qs, warmup, err := e.generateQueries(ctx, tpl, e.cfg.QueriesPerTemplate, ti, len(templates))
		if err != nil {
			return nil, err
		}
		res.Timing.Warmup += warmup
		res.Timing.Generate += time.Since(tGen) - warmup
		for _, gq := range qs {
			e.cfg.logf("feataug: generated %s (loss %.4f)", gq.Query.SQL("R"), gq.Loss)
		}
		res.Queries = append(res.Queries, qs...)
	}
	e.cfg.progress(StageGenerate, len(templates), len(templates))
	res.Timing.ModelFit = e.eval.FitTime - fit0
	e.cfg.logf("feataug: %d queries in %s (QTI %s, warm-up %s, generate %s; model fit %s)",
		len(res.Queries), res.Timing.Total().Round(time.Millisecond),
		res.Timing.QTI.Round(time.Millisecond), res.Timing.Warmup.Round(time.Millisecond),
		res.Timing.Generate.Round(time.Millisecond), res.Timing.ModelFit.Round(time.Millisecond))

	// Materialise every generated feature in one executor batch: the fused
	// shared-scan path groups them by plan group, so a cold run pays a few
	// scans per distinct WHERE mask rather than one per feature (searches
	// usually leave these cached anyway).
	e.cfg.progress(StageMaterialize, 0, 1)
	aug := e.eval.P.Train.Clone()
	vals, valid, err := e.eval.FeatureBatchContext(ctx, res.QueryList())
	if err != nil {
		return nil, err
	}
	for i := range res.Queries {
		name := fmt.Sprintf("feataug_%d", i)
		if err := aug.AddColumn(dataframe.NewFloatColumn(name, vals[i], valid[i])); err != nil {
			return nil, err
		}
		res.FeatureNames = append(res.FeatureNames, name)
	}
	res.Augmented = aug
	e.cfg.progress(StageMaterialize, 1, 1)
	if !e.cfg.suppressStatsLog {
		e.cfg.logf("feataug: executor stats: %s", e.eval.Executor().Stats())
	}
	e.cfg.stats(e.eval.Executor().Stats())
	return res, nil
}

// Queries exposes just the generated query objects.
func (r *Result) QueryList() []query.Query {
	out := make([]query.Query, len(r.Queries))
	for i, gq := range r.Queries {
		out[i] = gq.Query
	}
	return out
}
