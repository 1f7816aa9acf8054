package feataug

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"repro/internal/dataframe"
	"repro/internal/ml"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// RelevantInput describes one relevant table in a multi-table scenario
// (Section III: "the scenario with multiple relevant tables can be
// represented by multiple scenarios with one base table and one relevant
// table").
type RelevantInput struct {
	// Name labels the scenario in results and prefixes its feature columns
	// (<name>_feataug_<i>). It must be non-empty and unique across inputs.
	Name string
	// Table is the (already flattened) relevant table.
	Table *dataframe.Table
	// Keys are its foreign-key columns into the training table.
	Keys []string
	// AggAttrs / PredAttrs configure the template ingredients for this
	// table; empty PredAttrs defaults to AggAttrs (the same
	// pipeline.Problem.Normalized rule the single-table path applies).
	AggAttrs  []string
	PredAttrs []string
}

// MultiResult is the outcome of a multi-relevant-table run: one Result per
// relevant table plus the training table carrying every generated feature.
type MultiResult struct {
	PerTable  []*Result
	Names     []string
	Augmented *dataframe.Table
	// FeatureNames are all added columns, table-major.
	FeatureNames []string
}

// validateInputs rejects multi-table input sets before any search work
// starts: there must be at least one input, every Name must be non-empty
// (ErrEmptySource) and unique (ErrDuplicateSource) — duplicate or empty names
// would generate colliding <name>_feataug_<i> columns — and every Table
// non-nil (ErrNilTable).
func validateInputs(inputs []RelevantInput) error {
	if len(inputs) == 0 {
		return fmt.Errorf("feataug: no relevant tables")
	}
	seen := make(map[string]bool, len(inputs))
	for i, in := range inputs {
		if in.Name == "" {
			return fmt.Errorf("%w: input %d", ErrEmptySource, i)
		}
		if seen[in.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateSource, in.Name)
		}
		seen[in.Name] = true
		if in.Table == nil {
			return fmt.Errorf("%w: relevant table %q (input %d)", ErrNilTable, in.Name, i)
		}
	}
	return nil
}

// sourceSeed derives the deterministic per-table search seed: the base seed
// folded with an FNV-1a hash of the source name. Name-keyed (rather than
// index-keyed) so a table keeps its seed when the input set is reordered or
// extended, and independent per table so concurrent searches do not replay
// one another's random streams.
func sourceSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// scopeConfig returns a copy of cfg with the progress and log callbacks
// scoped to one source: Logf lines gain a "[name]" prefix, and progress goes
// through sourceProgress (carrying the name) when set, else the original
// Progress. All callbacks serialise on mu, because per-table engines run
// concurrently and the Config contract promises synchronous callbacks.
func scopeConfig(cfg Config, name string, mu *sync.Mutex, sourceProgress func(string, Stage, int, int)) Config {
	if logf := cfg.Logf; logf != nil {
		cfg.Logf = func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logf("[%s] "+format, append([]interface{}{name}, args...)...)
		}
	}
	switch {
	case sourceProgress != nil:
		cfg.Progress = func(stage Stage, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			sourceProgress(name, stage, done, total)
		}
	case cfg.Progress != nil:
		progress := cfg.Progress
		cfg.Progress = func(stage Stage, done, total int) {
			mu.Lock()
			defer mu.Unlock()
			progress(stage, done, total)
		}
	}
	return cfg
}

// fitMulti is the shared engine of FitMulti and AugmentMulti: validate every
// input up front (no partial work on bad input sets), then run one FeatAug
// search per relevant table concurrently on the shared worker pool and
// assemble the MultiFeaturePlan in input order. parallel <= 0 means
// GOMAXPROCS; 1 forces the sequential path (the benchmark baseline).
func fitMulti(ctx context.Context, base pipeline.Problem, inputs []RelevantInput, o fitOptions, parallel int) (*MultiFeaturePlan, []*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := validateInputs(inputs); err != nil {
		return nil, nil, err
	}
	// Build every per-table problem and evaluator before any search starts,
	// so a validation failure on the last input surfaces before the first
	// table has burned a single evaluation.
	problems := make([]pipeline.Problem, len(inputs))
	evals := make([]*pipeline.Evaluator, len(inputs))
	cfgs := make([]Config, len(inputs))
	var mu sync.Mutex
	for i, in := range inputs {
		p := base
		p.Relevant = in.Table
		p.Keys = in.Keys
		p.AggAttrs = in.AggAttrs
		p.PredAttrs = in.PredAttrs
		p = p.Normalized()
		cfg := o.cfg
		cfg.Seed = sourceSeed(o.cfg.Seed, in.Name)
		cfg = scopeConfig(cfg, in.Name, &mu, o.sourceProgress)
		// The executor stats are logged and delivered once, merged over
		// every source, after every search finishes (below): never k
		// interleaved per-source log lines or concurrent Stats calls.
		cfg.suppressStatsLog = true
		cfg.Stats = nil
		ev, err := pipeline.NewEvaluator(p, o.model, cfg.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("feataug: relevant table %q: %w", in.Name, err)
		}
		if parallel != 1 && len(inputs) > 1 {
			// The per-table engines run concurrently and each drives its
			// executor's worker pool and its concurrent template searches;
			// divide the machine between them so k concurrent searches do
			// not spawn k × GOMAXPROCS workers. Executor results and the
			// split-stream searches are schedule-independent, so this only
			// shapes contention, never output.
			split := max(runtime.GOMAXPROCS(0)/len(inputs), 1)
			ev.Executor().Parallelism = split
			cfg.parallel = split
		}
		problems[i], evals[i], cfgs[i] = p, ev, cfg
	}
	// One search per table, concurrently. Searches are independent — own
	// evaluator, own seed — so the parallel schedule cannot change any
	// table's outcome and results land in deterministic input order.
	results := make([]*Result, len(inputs))
	err := par.ForEachCtx(ctx, parallel, len(inputs), func(i int) error {
		res, err := NewEngine(evals[i], o.funcs, cfgs[i]).Run(ctx)
		if err != nil {
			return fmt.Errorf("feataug: relevant table %q: %w", inputs[i].Name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var merged query.ExecutorStats
	for _, ev := range evals {
		merged = merged.Add(ev.Executor().Stats())
	}
	o.cfg.logf("feataug: merged executor stats (%d sources): %s", len(inputs), merged)
	o.cfg.stats(merged)
	return newMultiPlan(base, inputs, problems, results), results, nil
}

// FitMulti runs the complete FeatAug search once per relevant table — the
// searches run concurrently on the shared worker pool, each under a
// deterministic seed derived from the configured seed and the source name —
// and returns the learned MultiFeaturePlan: one serialisable FeaturePlan
// section per source, in input order. base describes the shared
// training-side configuration (its Relevant/Keys/AggAttrs/PredAttrs fields
// are ignored; each input supplies its own), and feature budgets apply per
// relevant table, matching the paper's decomposition of the multi-table
// scenario. Cancelling the context stops every per-table search between
// evaluations and returns an error wrapping ctx.Err().
func FitMulti(ctx context.Context, base pipeline.Problem, inputs []RelevantInput, opts ...Option) (*MultiFeaturePlan, error) {
	o := fitOptions{model: ml.KindXGB}
	for _, opt := range opts {
		opt(&o)
	}
	plan, _, err := fitMulti(ctx, base, inputs, o, 0)
	return plan, err
}

// RelevantsByName maps a multi-table input set by source name — the binding
// MultiFeaturePlan.Transformer takes.
func RelevantsByName(inputs []RelevantInput) map[string]*dataframe.Table {
	m := make(map[string]*dataframe.Table, len(inputs))
	for _, in := range inputs {
		m[in.Name] = in.Table
	}
	return m
}

// AugmentMulti runs the full multi-table workflow once and merges the
// generated features onto one training table: a thin wrapper over FitMulti
// followed by MultiFeaturePlan.Transformer + Transform on the training table,
// so the one-shot path and the fit/save/load/transform serving path are the
// same code and produce bit-identical output. The returned table has feature
// columns named <name>_feataug_<i>.
func AugmentMulti(ctx context.Context, base pipeline.Problem, model ml.Kind, cfg Config, inputs []RelevantInput) (*MultiResult, error) {
	plan, results, err := fitMulti(ctx, base, inputs, fitOptions{model: model, cfg: cfg}, 0)
	if err != nil {
		return nil, err
	}
	tr, err := plan.Transformer(RelevantsByName(inputs))
	if err != nil {
		return nil, err
	}
	aug, err := tr.Transform(ctx, base.Train)
	if err != nil {
		return nil, err
	}
	out := &MultiResult{
		PerTable:     results,
		Names:        plan.SourceNames(),
		Augmented:    aug,
		FeatureNames: tr.FeatureNames(),
	}
	return out, nil
}

// NamedQuery pairs a generated query with the name of the relevant table (or
// other source) it was generated from.
type NamedQuery struct {
	Source string      `json:"source"`
	Query  query.Query `json:"query"`
}

// Queries returns every generated query across relevant tables, table-major,
// with the owning table name.
func (m *MultiResult) Queries() []NamedQuery {
	var out []NamedQuery
	for i, res := range m.PerTable {
		for _, gq := range res.Queries {
			out = append(out, NamedQuery{Source: m.Names[i], Query: gq.Query})
		}
	}
	return out
}
