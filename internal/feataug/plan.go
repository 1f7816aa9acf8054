package feataug

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/dataframe"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// PlanVersion is the serialisation version written by this build. DecodePlan
// rejects plans with any other version with ErrPlanVersion.
const PlanVersion = 1

// PlannedQuery is one generated query inside a FeaturePlan: the query itself,
// the validation loss it achieved at fit time, and the feature column name it
// materialises under at transform time.
type PlannedQuery struct {
	Feature string      `json:"feature"`
	Loss    float64     `json:"loss"`
	Query   query.Query `json:"query"`
}

// FeaturePlan is the learned artefact of a Fit run: the set of
// predicate-aware SQL queries FeatAug discovered, with enough context to
// re-apply them to any future batch of the training table (or a fresh table
// with the same keys) without repeating the search. Plans round-trip through
// JSON exactly, so they can be persisted once and loaded in a serving
// process.
type FeaturePlan struct {
	// Version is the serialisation version (PlanVersion at fit time).
	Version int `json:"version"`
	// Keys are the join keys of the problem the plan was fitted on.
	Keys []string `json:"keys"`
	// Label is the training label column at fit time (informative; Transform
	// does not require it).
	Label string `json:"label,omitempty"`
	// Templates are the identified WHERE-clause attribute combinations with
	// their effectiveness scores, best first.
	Templates []TemplateScore `json:"templates,omitempty"`
	// Queries are the generated queries, template-major, each with its
	// validation loss and output feature name.
	Queries []PlannedQuery `json:"queries"`
}

// NewPlan assembles a plan from a finished engine run. Feature names follow
// Augment's feataug_<i> convention, so transforming the training table with
// the plan reproduces Augment's output columns exactly.
func NewPlan(p pipeline.Problem, res *Result) *FeaturePlan {
	plan := &FeaturePlan{
		Version:   PlanVersion,
		Keys:      append([]string(nil), p.Keys...),
		Label:     p.Label,
		Templates: append([]TemplateScore(nil), res.Templates...),
	}
	for i, gq := range res.Queries {
		name := fmt.Sprintf("feataug_%d", i)
		if i < len(res.FeatureNames) {
			name = res.FeatureNames[i]
		}
		plan.Queries = append(plan.Queries, PlannedQuery{
			Feature: name,
			Loss:    gq.Loss,
			Query:   gq.Query,
		})
	}
	return plan
}

// Validate checks the plan is usable by this build: supported version and at
// least one query, each with join keys.
func (p *FeaturePlan) Validate() error {
	if p.Version != PlanVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrPlanVersion, p.Version, PlanVersion)
	}
	if len(p.Queries) == 0 {
		return ErrEmptyPlan
	}
	for i, pq := range p.Queries {
		if len(pq.Query.Keys) == 0 {
			return fmt.Errorf("feataug: plan query %d has no join keys", i)
		}
		if pq.Feature == "" {
			return fmt.Errorf("feataug: plan query %d has no feature name", i)
		}
	}
	return nil
}

// Encode serialises the plan as indented JSON.
func (p *FeaturePlan) Encode() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(p, "", "  ")
}

// DecodePlan deserialises a plan and validates it; a plan written by a
// different serialisation version fails with ErrPlanVersion. The version is
// checked from a header probe before the body decodes, so a future version
// carrying names this build cannot parse (new agg functions, predicate
// kinds) still reports ErrPlanVersion rather than a decode error. Bytes that
// do not parse as JSON at all — empty, truncated, or non-plan content — fail
// with ErrPlanCorrupt.
func DecodePlan(data []byte) (*FeaturePlan, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrPlanCorrupt)
	}
	var header struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &header); err != nil {
		return nil, fmt.Errorf("%w: decode plan: %v", ErrPlanCorrupt, err)
	}
	if header.Version != PlanVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrPlanVersion, header.Version, PlanVersion)
	}
	var p FeaturePlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: decode plan: %v", ErrPlanCorrupt, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// QueryList returns the plan's queries in order.
func (p *FeaturePlan) QueryList() []query.Query {
	out := make([]query.Query, len(p.Queries))
	for i, pq := range p.Queries {
		out[i] = pq.Query
	}
	return out
}

// FeatureNames returns the plan's output column names in query order.
func (p *FeaturePlan) FeatureNames() []string {
	out := make([]string, len(p.Queries))
	for i, pq := range p.Queries {
		out[i] = pq.Feature
	}
	return out
}

// Transformer binds the plan to a relevant table and returns the online
// transform entry point. The relevant table must carry every column the
// plan's queries reference: join keys (ErrKeyMismatch otherwise) plus
// aggregation and predicate attributes (ErrSchemaMismatch otherwise). The
// returned Transformer shares one batch query executor across every
// Transform call, so group indexes and predicate bitmaps are built once and
// reused across batches — the serving fast path. The executor takes its scan
// state from the relevant table, so it starts warm on a table a fit (or
// another transformer) has already scanned. Executor options (e.g.
// query.WithParallelism) are forwarded to the underlying executor.
func (p *FeaturePlan) Transformer(relevant *dataframe.Table, opts ...query.ExecutorOption) (*Transformer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if relevant == nil {
		return nil, fmt.Errorf("%w: relevant table", ErrNilTable)
	}
	for _, pq := range p.Queries {
		for _, k := range pq.Query.Keys {
			if !relevant.HasColumn(k) {
				return nil, fmt.Errorf("%w: relevant table has no key column %q", ErrKeyMismatch, k)
			}
		}
		if !relevant.HasColumn(pq.Query.AggAttr) {
			return nil, fmt.Errorf("%w: no aggregation column %q", ErrSchemaMismatch, pq.Query.AggAttr)
		}
		for _, pred := range pq.Query.Preds {
			if !relevant.HasColumn(pred.Attr) {
				return nil, fmt.Errorf("%w: no predicate column %q", ErrSchemaMismatch, pred.Attr)
			}
		}
	}
	exec := query.NewExecutor(relevant, opts...)
	queries := p.QueryList()
	prep, err := exec.Prepare(queries)
	if err != nil {
		return nil, err
	}
	return &Transformer{plan: p, exec: exec, prep: prep, queries: queries}, nil
}

// Transformer applies a fitted FeaturePlan to new tables. It is the online
// half of the fit/transform lifecycle: construction pays the plan validation
// and prepares the plan's queries as one batch (query.Prepared) once, and
// each Transform call runs a pass of that batch — its plan groups resolved
// once and reused — through the shared cached batch executor. Safe for
// concurrent Transform calls.
type Transformer struct {
	plan    *FeaturePlan
	exec    *query.Executor
	prep    *query.Prepared // the plan's queries, prepared on exec
	queries []query.Query
}

// Plan returns the plan the transformer was built from.
func (t *Transformer) Plan() *FeaturePlan { return t.plan }

// Executor exposes the transformer's shared batch executor.
func (t *Transformer) Executor() *query.Executor { return t.exec }

// FeatureNames returns the column names Transform appends, in order.
func (t *Transformer) FeatureNames() []string { return t.plan.FeatureNames() }

// Transform materialises every planned feature onto d: each query is
// evaluated against the bound relevant table and left-joined on the plan's
// keys, appending one float column per query (NULL on join miss) under the
// plan's feature names. d is not mutated; the result is a new table. A table
// missing any join key fails with ErrKeyMismatch; cancellation aborts the
// batch and returns an error wrapping ctx.Err().
func (t *Transformer) Transform(ctx context.Context, d *dataframe.Table) (*dataframe.Table, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: transform input", ErrNilTable)
	}
	m, err := t.matrix(ctx, d)
	if err != nil {
		return nil, err
	}
	out := d.Clone()
	if err := out.AddFloatColumnsFlat(t.plan.FeatureNames(), m.Vals, m.Valid); err != nil {
		return nil, err
	}
	return out, nil
}

// checkKeys verifies d carries every join key the transformer's queries
// group by, returning ErrKeyMismatch otherwise.
func (t *Transformer) checkKeys(d *dataframe.Table) error {
	for _, q := range t.queries {
		for _, k := range q.Keys {
			if !d.HasColumn(k) {
				return fmt.Errorf("%w: input table has no key column %q", ErrKeyMismatch, k)
			}
		}
	}
	return nil
}

// matrix materialises the planned feature vectors for d as one columnar bulk
// buffer without assembling an output table — the shared core of Transform
// and MultiTransformer.Transform.
func (t *Transformer) matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	if err := t.checkKeys(d); err != nil {
		return nil, err
	}
	return t.prep.AugmentMatrix(ctx, d)
}

// Matrix materialises the planned feature vectors for d as one columnar bulk
// FeatureMatrix (one column per planned feature, in FeatureNames order)
// without assembling an output table. This is the serving entry point: a
// coalescer that fuses many small requests into one pass scatters matrix row
// ranges back to waiters without paying per-request table assembly.
func (t *Transformer) Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: transform input", ErrNilTable)
	}
	return t.matrix(ctx, d)
}

// RequiredKeys returns the union of join-key columns the plan's queries group
// by, in first-seen order — the columns a transform input table must carry.
func (t *Transformer) RequiredKeys() []string {
	var out []string
	seen := map[string]bool{}
	for _, q := range t.queries {
		for _, k := range q.Keys {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// Stats returns the transformer's executor counters.
func (t *Transformer) Stats() query.ExecutorStats { return t.exec.Stats() }
