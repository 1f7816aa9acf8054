package feataug

import (
	"context"

	"repro/internal/agg"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// fitOptions collects the knobs Fit accepts through functional options.
type fitOptions struct {
	model ml.Kind
	funcs []agg.Func
	cfg   Config
	// sourceProgress, when set, receives FitMulti's per-table progress with
	// the source name attached; single-table Fit ignores it.
	sourceProgress func(source string, stage Stage, done, total int)
}

// Option configures a Fit call. Options are applied in order, so a later
// option overrides an earlier one; WithConfig replaces the whole engine
// configuration and should therefore come before narrower options like
// WithSeed or WithProxy when combined.
type Option func(*fitOptions)

// WithModel selects the downstream model family (default XGB, the paper's
// primary model).
func WithModel(m ml.Kind) Option {
	return func(o *fitOptions) { o.model = m }
}

// WithAggFuncs restricts the aggregation function set F (default: the full
// 15-function set of Table II).
func WithAggFuncs(funcs ...agg.Func) Option {
	return func(o *fitOptions) { o.funcs = append([]agg.Func(nil), funcs...) }
}

// WithSeed fixes the random seed of the search and the evaluation split.
func WithSeed(seed int64) Option {
	return func(o *fitOptions) { o.cfg.Seed = seed }
}

// WithProxy selects the low-cost proxy task used by the warm-up phase and
// query template identification (default MI).
func WithProxy(p pipeline.ProxyKind) Option {
	return func(o *fitOptions) { o.cfg.Proxy = p }
}

// WithConfig replaces the entire engine configuration, for callers that need
// the full knob surface (budgets, ablation switches, space discretisation).
func WithConfig(cfg Config) Option {
	return func(o *fitOptions) { o.cfg = cfg }
}

// WithProgress registers a stage-level progress callback: (stage, done,
// total) with done in [0, total], never moving backwards within a stage.
// Callbacks are serialised, so fn needs no locking of its own, but they may
// come from the goroutines that search templates concurrently.
func WithProgress(fn func(stage Stage, done, total int)) Option {
	return func(o *fitOptions) { o.cfg.Progress = fn }
}

// WithLogf registers a printf-style progress logger.
func WithLogf(logf func(format string, args ...interface{})) Option {
	return func(o *fitOptions) { o.cfg.Logf = logf }
}

// WithStats registers a callback that receives the fit's final executor
// counters after feature materialisation. Single-table Fit delivers one
// callback; FitMulti merges every source's counters and delivers the sum
// once after all searches finish. The CLI uses it to print the same
// scatter / shared-scan lines in fit mode that the transform path prints.
func WithStats(fn func(query.ExecutorStats)) Option {
	return func(o *fitOptions) { o.cfg.Stats = fn }
}

// WithSourceProgress registers a progress callback for FitMulti carrying the
// relevant-table name alongside the stage counters, so concurrent per-table
// searches report unambiguously. When set it replaces WithProgress for the
// multi-table path; callbacks are serialised across tables, so fn needs no
// locking of its own. Single-table Fit ignores it.
func WithSourceProgress(fn func(source string, stage Stage, done, total int)) Option {
	return func(o *fitOptions) { o.sourceProgress = fn }
}

// Fit runs the complete FeatAug search (query template identification
// followed by predicate-aware SQL query generation) on a problem and returns
// the learned FeaturePlan — the serialisable set of queries that
// FeaturePlan.Transformer re-applies to any future batch. Cancelling the
// context stops the search between evaluations and returns an error wrapping
// ctx.Err().
func Fit(ctx context.Context, p pipeline.Problem, opts ...Option) (*FeaturePlan, error) {
	if ctx != nil {
		// Bail before the evaluator builds its label/feature caches — on a
		// large problem that alone is noticeable work.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	o := fitOptions{model: ml.KindXGB}
	for _, opt := range opts {
		opt(&o)
	}
	ev, err := pipeline.NewEvaluator(p, o.model, o.cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := NewEngine(ev, o.funcs, o.cfg).Run(ctx)
	if err != nil {
		return nil, err
	}
	return NewPlan(p, res), nil
}
