// Package repro is a from-scratch Go reproduction of "FeatAug: Automatic
// Feature Augmentation From One-to-Many Relationship Tables" (Qi, Zheng,
// Wang; ICDE 2024). It exposes the full system through type aliases onto the
// internal implementation packages:
//
//   - a columnar dataframe engine (tables, group-by, joins, CSV I/O),
//   - the 15 aggregation functions of the paper's query templates,
//   - predicate-aware SQL query objects, templates and pools, plus a cached
//     fused batch executor: one shared group index per key-set, one bitmap
//     per predicate, one cached group-discovery per (keys, WHERE-mask) plan
//     group, and batch entry points (ExecuteBatch) that run one set of
//     streaming shared scans per plan group instead of one scan per query —
//     the engine, the baselines and the evaluator all execute queries
//     through it; scans proceed morsel by morsel (fixed row ranges, prompt
//     cancellation),
//   - a TPE hyper-parameter optimiser with warm-starting,
//   - LR / RF / XGBoost-style GBDT / DeepFM downstream models and metrics,
//   - the FeatAug engine itself (SQL query generation + query template
//     identification), every baseline the paper compares against, the
//     synthetic dataset generators, and the experiment harness regenerating
//     each table and figure of the evaluation.
//
// The public API follows a scikit-learn-style fit/transform lifecycle. Fit
// runs the search once and returns a serialisable FeaturePlan — the learned
// set of predicate-aware SQL queries with their validation losses:
//
//	p := repro.Problem{Train: d, Relevant: r, Label: "label", Task: repro.TaskBinary,
//	    Keys: []string{"cname"}, AggAttrs: []string{"pprice"},
//	    PredAttrs: []string{"department", "timestamp"}, BaseFeatures: []string{"age"}}
//	plan, err := repro.Fit(ctx, p, repro.WithModel(repro.ModelXGB), repro.WithSeed(7))
//
// Plans round-trip through JSON, so the expensive search runs once and the
// result is persisted:
//
//	data, _ := plan.Encode()              // save
//	plan, _ = repro.DecodePlan(data)      // load (possibly in another process)
//
// Transforming binds the plan to a relevant table and materialises the
// planned features onto any table with matching keys — the online-serving
// fast path, running every query through one shared cached batch executor:
//
//	tr, _ := plan.Transformer(r)
//	augmented, err := tr.Transform(ctx, freshBatch)
//
// Multi-relevant-table scenarios (Section III's decomposition) follow the
// same lifecycle: FitMulti searches every relevant table concurrently and
// returns a MultiFeaturePlan (one FeaturePlan section per source, with schema
// fingerprints), which binds to its tables by name and transforms through
// per-source cached executors:
//
//	mp, _ := repro.FitMulti(ctx, base, inputs, repro.WithModel(repro.ModelXGB))
//	mtr, _ := mp.Transformer(repro.RelevantsByName(inputs))
//	augmented, err = mtr.Transform(ctx, freshBatch)
//
// Fit is configured with functional options (WithModel, WithAggFuncs,
// WithSeed, WithProxy, WithConfig, WithProgress), long searches are
// cancellable through the context, and failure modes surface as typed
// sentinel errors (ErrNoTemplates, ErrKeyMismatch, ErrPlanVersion, ...)
// testable with errors.Is. The one-shot Augment entry point remains as a
// deprecated wrapper over the same engine.
package repro

import (
	"context"

	"repro/internal/agg"
	"repro/internal/baselines"
	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/feataug"
	"repro/internal/hpo"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/relschema"
)

// Core dataframe types.
type (
	// Table is a columnar table with null bitmaps.
	Table = dataframe.Table
	// Column is one typed column of a Table.
	Column = dataframe.Column
)

// Query machinery.
type (
	// Template is the paper's quadruple T = (F, A, P, K).
	Template = query.Template
	// Query is one predicate-aware SQL query.
	Query = query.Query
	// Predicate is one WHERE-clause conjunct.
	Predicate = query.Predicate
	// Space is the discrete search space of a template's query pool.
	Space = query.Space
	// Executor is the cached, parallel batch query executor: group indexes,
	// predicate bitmaps and plan-group discoveries are computed once per
	// relevant table and shared by every query executed through it, and
	// batch calls run fused — one set of shared scans per distinct
	// (GROUP BY keys, WHERE mask) plan group instead of one scan per query.
	Executor = query.Executor
	// ExecutorStats is a snapshot of an Executor's cache and fused-scan
	// counters (Executor.Stats), for perf observability.
	ExecutorStats = query.ExecutorStats
	// FeatureMatrix is the columnar bulk output of Executor.AugmentMatrix:
	// every feature column of a batch in one flat column-major buffer.
	FeatureMatrix = query.FeatureMatrix
)

// NewExecutor builds a batch executor over one relevant table. Evaluators
// construct their own internally; use this to run query batches directly.
func NewExecutor(r *Table) *Executor { return query.NewExecutor(r) }

// DefaultMorselRows is the row count of one scan morsel.
const DefaultMorselRows = dataframe.DefaultMorselRows

// SplitValues returns the distinct non-NULL values of a string column in
// ascending order.
func SplitValues(t *Table, splitCol string) ([]string, error) {
	return feataug.SplitValues(t, splitCol)
}

// SplitByValue partitions a table on a string column into one plain table
// per listed value, keyed by the value (empty when no row has it) — the
// relevant tables of a multi-table scenario split from one table — and counts
// the rows in no part.
func SplitByValue(t *Table, splitCol string, values []string) (map[string]*Table, int, error) {
	return feataug.SplitByValue(t, splitCol, values)
}

// FeatAug engine.
type (
	// Config tunes the FeatAug engine.
	Config = feataug.Config
	// Result is the outcome of a FeatAug run.
	Result = feataug.Result
	// Engine runs FeatAug against one problem/model pair.
	Engine = feataug.Engine
	// GeneratedQuery pairs a query with its validation loss.
	GeneratedQuery = feataug.GeneratedQuery
	// TemplateScore is an identified template with its effectiveness.
	TemplateScore = feataug.TemplateScore
)

// Fit/transform lifecycle.
type (
	// FeaturePlan is the serialisable outcome of a Fit run: the learned
	// predicate-aware queries plus everything needed to re-apply them.
	FeaturePlan = feataug.FeaturePlan
	// PlannedQuery is one query inside a FeaturePlan.
	PlannedQuery = feataug.PlannedQuery
	// Transformer applies a fitted FeaturePlan to new tables.
	Transformer = feataug.Transformer
	// MultiFeaturePlan is the serialisable outcome of a FitMulti run: one
	// FeaturePlan section per relevant table, with source names and schema
	// fingerprints.
	MultiFeaturePlan = feataug.MultiFeaturePlan
	// PlanSource is one relevant table's section of a MultiFeaturePlan.
	PlanSource = feataug.PlanSource
	// MultiTransformer applies a fitted MultiFeaturePlan to new tables.
	MultiTransformer = feataug.MultiTransformer
	// Option configures a Fit call.
	Option = feataug.Option
	// Stage identifies one phase of a run for WithProgress callbacks.
	Stage = feataug.Stage
)

// PlanVersion is the FeaturePlan serialisation version this build writes.
const PlanVersion = feataug.PlanVersion

// MultiPlanVersion is the MultiFeaturePlan serialisation version this build
// writes.
const MultiPlanVersion = feataug.MultiPlanVersion

// Progress stages, in execution order.
const (
	StageQTI         = feataug.StageQTI
	StageWarmup      = feataug.StageWarmup
	StageGenerate    = feataug.StageGenerate
	StageMaterialize = feataug.StageMaterialize
)

// Sentinel errors of the fit/transform lifecycle; test with errors.Is.
var (
	ErrNoTemplates     = feataug.ErrNoTemplates
	ErrNoQueries       = feataug.ErrNoQueries
	ErrKeyMismatch     = feataug.ErrKeyMismatch
	ErrSchemaMismatch  = feataug.ErrSchemaMismatch
	ErrPlanVersion     = feataug.ErrPlanVersion
	ErrPlanCorrupt     = feataug.ErrPlanCorrupt
	ErrEmptyPlan       = feataug.ErrEmptyPlan
	ErrNilTable        = feataug.ErrNilTable
	ErrEmptySource     = feataug.ErrEmptySource
	ErrDuplicateSource = feataug.ErrDuplicateSource
	ErrMissingSource   = feataug.ErrMissingSource
)

// WithModel selects the downstream model family (default XGB).
func WithModel(m ModelKind) Option { return feataug.WithModel(m) }

// WithAggFuncs restricts the aggregation function set F (default: all 15).
func WithAggFuncs(funcs ...AggFunc) Option { return feataug.WithAggFuncs(funcs...) }

// WithSeed fixes the random seed of the search and the evaluation split.
func WithSeed(seed int64) Option { return feataug.WithSeed(seed) }

// WithProxy selects the low-cost proxy (MI / SC / LR; default MI).
func WithProxy(p ProxyKind) Option { return feataug.WithProxy(p) }

// WithConfig replaces the entire engine configuration; combine it with
// narrower options by placing it first (options apply in order).
func WithConfig(cfg Config) Option { return feataug.WithConfig(cfg) }

// WithProgress registers a stage-level progress callback.
func WithProgress(fn func(stage Stage, done, total int)) Option {
	return feataug.WithProgress(fn)
}

// WithLogf registers a printf-style progress logger.
func WithLogf(logf func(format string, args ...interface{})) Option {
	return feataug.WithLogf(logf)
}

// WithSourceProgress registers a FitMulti progress callback carrying the
// relevant-table name alongside the stage counters.
func WithSourceProgress(fn func(source string, stage Stage, done, total int)) Option {
	return feataug.WithSourceProgress(fn)
}

// WithStats registers a callback receiving the fit's final executor counters
// (merged across sources for FitMulti).
func WithStats(fn func(ExecutorStats)) Option {
	return feataug.WithStats(fn)
}

// Fit runs the complete FeatAug search on a problem and returns the learned
// FeaturePlan. Cancelling the context stops the search promptly with an
// error wrapping ctx.Err().
func Fit(ctx context.Context, p Problem, opts ...Option) (*FeaturePlan, error) {
	return feataug.Fit(ctx, p, opts...)
}

// DecodePlan deserialises a FeaturePlan produced by FeaturePlan.Encode,
// rejecting incompatible versions with ErrPlanVersion.
func DecodePlan(data []byte) (*FeaturePlan, error) { return feataug.DecodePlan(data) }

// Evaluation plumbing.
type (
	// Problem describes one dataset in template terms.
	Problem = pipeline.Problem
	// Evaluator runs the train/valid/test protocol for a problem.
	Evaluator = pipeline.Evaluator
	// ProxyKind selects the low-cost proxy (MI / SC / LR).
	ProxyKind = pipeline.ProxyKind
)

// ML substrate.
type (
	// ModelKind identifies a downstream model family.
	ModelKind = ml.Kind
	// Task identifies the learning problem.
	Task = ml.Task
	// Model is the common learner interface.
	Model = ml.Model
)

// AggFunc identifies one of the 15 aggregation functions.
type AggFunc = agg.Func

// ExperimentConfig scales a paper-table regeneration run.
type ExperimentConfig = experiments.Config

// Re-exported enumeration values.
const (
	TaskBinary     = ml.Binary
	TaskMultiClass = ml.MultiClass
	TaskRegression = ml.Regression

	ModelLR     = ml.KindLR
	ModelXGB    = ml.KindXGB
	ModelRF     = ml.KindRF
	ModelDeepFM = ml.KindDeepFM

	ProxyMI = pipeline.ProxyMI
	ProxySC = pipeline.ProxySC
	ProxyLR = pipeline.ProxyLR
)

// AllAggFuncs returns the paper's 15-function aggregation set.
func AllAggFuncs() []AggFunc { return agg.All() }

// BasicAggFuncs returns the SUM/MIN/MAX/COUNT/AVG subset.
func BasicAggFuncs() []AggFunc { return agg.Basic() }

// NewEvaluator wires a problem to a downstream model under the paper's
// 0.6/0.2/0.2 protocol.
func NewEvaluator(p Problem, model ModelKind, seed int64) (*Evaluator, error) {
	return pipeline.NewEvaluator(p, model, seed)
}

// NewEngine builds a FeatAug engine; funcs nil defaults to the full
// 15-function set.
func NewEngine(e *Evaluator, funcs []AggFunc, cfg Config) *Engine {
	return feataug.NewEngine(e, funcs, cfg)
}

// Augment runs the complete FeatAug workflow (query template identification
// followed by predicate-aware SQL query generation) and returns the
// augmented training table plus the generated queries.
//
// Deprecated: Augment fuses search and materialisation into one
// uncancellable call. Use Fit to learn a serialisable FeaturePlan and
// FeaturePlan.Transformer to apply it — the same engine underneath, with
// context cancellation, functional options and a persistable artefact.
// Augment is kept as a thin compatibility wrapper.
func Augment(p Problem, model ModelKind, funcs []AggFunc, cfg Config) (*Result, error) {
	e, err := pipeline.NewEvaluator(p, model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return feataug.NewEngine(e, funcs, cfg).Run(context.Background())
}

// Featuretools enumerates the predicate-free DFS query space, the baseline
// the paper compares against.
func Featuretools(p Problem, funcs []AggFunc) []Query {
	return baselines.Featuretools(p, funcs)
}

// RandomQueries draws random templates and random queries from their pools —
// the paper's Random baseline.
func RandomQueries(p Problem, funcs []AggFunc, numTemplates, queriesPerTemplate int, seed int64) ([]Query, error) {
	return baselines.Random(p, funcs, numTemplates, queriesPerTemplate, query.SpaceOptions{}, seed)
}

// GenerateDataset builds one of the six synthetic evaluation datasets by
// name ("tmall", "instacart", "student", "merchant", "covtype", "household").
func GenerateDataset(name string, trainRows int, seed int64) (*datagen.Dataset, error) {
	gen, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	return gen(datagen.Options{TrainRows: trainRows, Seed: seed}), nil
}

// DatasetProblem converts a generated dataset into an evaluation problem.
func DatasetProblem(d *datagen.Dataset) Problem {
	return Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		BaseFeatures: d.BaseFeatures,
	}
}

// TPEOptions re-exports the optimiser knobs for advanced users.
type TPEOptions = hpo.TPEOptions

// Multi-table schema support (Section III's reductions).
type (
	// Schema is a multi-table relational schema.
	Schema = relschema.Schema
	// Relationship is one foreign-key edge.
	Relationship = relschema.Relationship
	// RelevantTable is one flattened one-to-many scenario.
	RelevantTable = relschema.RelevantTable
	// RelevantInput feeds one relevant table to AugmentMulti.
	RelevantInput = feataug.RelevantInput
	// MultiResult is the outcome of a multi-relevant-table run.
	MultiResult = feataug.MultiResult
	// NamedQuery pairs a generated query with the name of its source table.
	NamedQuery = feataug.NamedQuery
)

// Relationship cardinalities.
const (
	OneToMany = relschema.OneToMany
	ManyToOne = relschema.ManyToOne
	OneToOne  = relschema.OneToOne
)

// NewSchema builds an empty multi-table schema.
func NewSchema() *Schema { return relschema.NewSchema() }

// AugmentMulti runs FeatAug once per relevant table (concurrently) and merges
// every generated feature onto one training table (the paper's multiple-
// relevant-tables decomposition). It is a thin wrapper over FitMulti followed
// by MultiFeaturePlan.Transformer + Transform on the training table, so its
// output is bit-identical to the fit/save/load/transform path. Use
// AugmentMultiContext to make the search cancellable.
func AugmentMulti(base Problem, model ModelKind, cfg Config, inputs []RelevantInput) (*MultiResult, error) {
	return feataug.AugmentMulti(context.Background(), base, model, cfg, inputs)
}

// AugmentMultiContext is AugmentMulti under a context: cancellation stops the
// per-table searches between evaluations.
func AugmentMultiContext(ctx context.Context, base Problem, model ModelKind, cfg Config, inputs []RelevantInput) (*MultiResult, error) {
	return feataug.AugmentMulti(ctx, base, model, cfg, inputs)
}

// FitMulti runs the complete FeatAug search once per relevant table — the
// per-table searches run concurrently, each under a deterministic seed
// derived from the configured seed and the source name — and returns the
// learned MultiFeaturePlan, one serialisable FeaturePlan section per source.
func FitMulti(ctx context.Context, base Problem, inputs []RelevantInput, opts ...Option) (*MultiFeaturePlan, error) {
	return feataug.FitMulti(ctx, base, inputs, opts...)
}

// DecodeMultiPlan deserialises a MultiFeaturePlan produced by
// MultiFeaturePlan.Encode, rejecting incompatible versions with
// ErrPlanVersion.
func DecodeMultiPlan(data []byte) (*MultiFeaturePlan, error) {
	return feataug.DecodeMultiPlan(data)
}

// RelevantsByName maps a multi-table input set by source name — the binding
// MultiFeaturePlan.Transformer takes.
func RelevantsByName(inputs []RelevantInput) map[string]*Table {
	return feataug.RelevantsByName(inputs)
}

// ParseSQL parses a predicate-aware SQL query in the paper's canonical form
// and returns the query plus the relation name.
func ParseSQL(sql string) (Query, string, error) { return query.ParseSQL(sql) }
