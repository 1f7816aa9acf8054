package feataug

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dataframe"
	"repro/internal/query"
)

// Timing splits a run's search time the way the paper's scalability figures
// do (Figures 7–9): Query Template Identification, warm-up, and generation.
// Each phase is work time: the searches a phase runs concurrently (QTI's
// nodes within a layer, the templates' warm-ups and generations) each count
// in full, so a phase can exceed its wall time when they overlap.
type Timing struct {
	QTI      time.Duration
	Warmup   time.Duration
	Generate time.Duration
	// ModelFit is the part of QTI, Warmup and Generate spent inside
	// downstream-model Fit calls (pipeline.Evaluator.FitTime), the paper's
	// cost unit. It is a layer of the three phases, not a fourth phase, so
	// it never exceeds Total.
	ModelFit time.Duration
}

// Total returns the summed work time of the three phases; with templates
// searched concurrently it exceeds the run's wall time.
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
	var overlap time.Duration
	fit0 := e.eval.FitTime
	t0 := time.Now()
	e.cfg.progress(StageQTI, 0, 1)
	if e.cfg.DisableQTI {
		// NoQTI ablation: the single template over all provided attributes.
		templates = []TemplateScore{{PredAttrs: append([]string(nil), attrs...)}}
	} else {
		var err error
		templates, overlap, err = e.identifyTemplates(ctx, attrs, e.cfg.NumTemplates)
		if err != nil {
			return nil, err
		}
	}
	e.cfg.progress(StageQTI, 1, 1)
	res.Timing.QTI = time.Since(t0) + overlap
	res.Templates = templates
	for _, ts := range templates {
		e.cfg.logf("feataug: template %v (effectiveness %.4f)", ts.PredAttrs, ts.Score)
	}

	// Generation: one search per template, run concurrently on split streams
	// (runSplit) and merged in template order. Each template's warm-up
	// (proxy TPE plus the priming real evaluations) is timed inside
	// generateQueries; the rest of its search is generation.
	n := len(templates)
	spaces := make([]*query.Space, n)
	for i, ts := range templates {
		space, err := e.spaces.Space(e.Template(ts.PredAttrs))
		if err != nil {
			return nil, err
		}
		spaces[i] = space
	}
	type templateRun struct {
		qs             []GeneratedQuery
		warmup, search time.Duration
	}
	runs := make([]templateRun, n)
	var mu sync.Mutex // serialises progress and its done-counts
	warmed, generated := 0, 0
	e.cfg.progress(StageGenerate, 0, n)
	if !e.cfg.DisableWarmup {
		e.cfg.progress(StageWarmup, 0, n)
	}
	err := e.runSplit(ctx, n, func(i int) { e.skipGeneration(spaces[i]) }, func(i int, rng *rand.Rand) error {
		tGen := time.Now()
		qs, warmup, err := e.generateQueries(ctx, spaces[i], e.cfg.QueriesPerTemplate, rng, func() {
			mu.Lock()
			defer mu.Unlock()
			warmed++
			e.cfg.progress(StageWarmup, warmed, n)
		})
		if err != nil {
			return err
		}
		runs[i] = templateRun{qs: qs, warmup: warmup, search: time.Since(tGen)}
		mu.Lock()
		defer mu.Unlock()
		generated++
		e.cfg.progress(StageGenerate, generated, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		res.Timing.Warmup += run.warmup
		res.Timing.Generate += run.search - run.warmup
		for _, gq := range run.qs {
			e.cfg.logf("feataug: generated %s (loss %.4f)", gq.Query.SQL("R"), gq.Loss)
		}
		res.Queries = append(res.Queries, run.qs...)
	}
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
