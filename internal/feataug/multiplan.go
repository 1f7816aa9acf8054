package feataug

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/dataframe"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// MultiPlanVersion is the MultiFeaturePlan serialisation version written by
// this build. DecodeMultiPlan rejects any other version with ErrPlanVersion.
const MultiPlanVersion = 1

// PlanSource is one relevant table's section of a MultiFeaturePlan: the
// source name, a fingerprint of the relevant-table schema the plan was fitted
// against (covering exactly the columns the plan's queries reference), and
// the per-table FeaturePlan itself.
type PlanSource struct {
	Name string `json:"name"`
	// SchemaFingerprint hashes name and physical kind of every column the
	// source's queries reference (keys, aggregation and predicate
	// attributes). Transformer recomputes it over the bound table and rejects
	// kind drift with ErrSchemaMismatch.
	SchemaFingerprint string `json:"schema_fingerprint"`
	// Plan is the per-table plan; its feature names carry the source prefix
	// (<name>_feataug_<i>), so sources never collide on column names.
	Plan FeaturePlan `json:"plan"`
}

// MultiFeaturePlan is the learned artefact of a FitMulti run over a
// multi-relevant-table scenario (Section III's decomposition into one
// FeatAug run per relevant table): one FeaturePlan section per source, in
// input order. Like FeaturePlan it round-trips through JSON exactly, so the
// multi-table search runs once and the result is persisted for serving.
type MultiFeaturePlan struct {
	// Version is the serialisation version (MultiPlanVersion at fit time).
	Version int `json:"version"`
	// Label is the training label column at fit time (informative).
	Label string `json:"label,omitempty"`
	// Sources are the per-table sections, in the order the relevant tables
	// were supplied to FitMulti.
	Sources []PlanSource `json:"sources"`
}

// newMultiPlan assembles the multi-table plan from the finished per-table
// runs. problems[i] is the per-table problem inputs[i] was searched under;
// feature names are rewritten to the <name>_feataug_<i> convention
// AugmentMulti established, so transforming reproduces its columns exactly.
func newMultiPlan(base pipeline.Problem, inputs []RelevantInput, problems []pipeline.Problem, results []*Result) *MultiFeaturePlan {
	mp := &MultiFeaturePlan{Version: MultiPlanVersion, Label: base.Label}
	for i, in := range inputs {
		plan := NewPlan(problems[i], results[i])
		for j := range plan.Queries {
			plan.Queries[j].Feature = fmt.Sprintf("%s_feataug_%d", in.Name, j)
		}
		mp.Sources = append(mp.Sources, PlanSource{
			Name:              in.Name,
			SchemaFingerprint: schemaFingerprint(in.Table, plan.referencedColumns()),
			Plan:              *plan,
		})
	}
	return mp
}

// referencedColumns returns the sorted set of relevant-table columns the
// plan's queries touch: join keys, aggregation attributes and predicate
// attributes. This is the column set a schema fingerprint covers — derivable
// from the plan alone, so fit and serve time compute it identically.
func (p *FeaturePlan) referencedColumns() []string {
	seen := map[string]bool{}
	for _, pq := range p.Queries {
		for _, k := range pq.Query.Keys {
			seen[k] = true
		}
		seen[pq.Query.AggAttr] = true
		for _, pred := range pq.Query.Preds {
			seen[pred.Attr] = true
		}
	}
	cols := make([]string, 0, len(seen))
	for c := range seen {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// schemaFingerprint hashes the (name, kind) pairs of the named columns in
// sorted column order. Missing columns hash as "absent", so a fingerprint
// mismatch also flags a column that disappeared.
func schemaFingerprint(tbl *dataframe.Table, cols []string) string {
	h := fnv.New64a()
	for _, name := range cols {
		h.Write([]byte(name))
		h.Write([]byte{'='})
		if c := tbl.Column(name); c != nil {
			h.Write([]byte(c.Kind().String()))
		} else {
			h.Write([]byte("absent"))
		}
		h.Write([]byte{';'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SchemaFingerprint computes the fingerprint a MultiFeaturePlan source
// carrying this plan would check tbl against at Transformer bind time:
// the hash of (name, kind) for every column the plan's queries reference.
// Serving tooling uses it to assemble PlanSource sections for tables it
// holds without rerunning a fit.
func (p *FeaturePlan) SchemaFingerprint(tbl *dataframe.Table) string {
	return schemaFingerprint(tbl, p.referencedColumns())
}

// Validate checks the plan is usable by this build: supported version, at
// least one source, non-empty unique source names, and every per-source plan
// valid in its own right.
func (p *MultiFeaturePlan) Validate() error {
	if p.Version != MultiPlanVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrPlanVersion, p.Version, MultiPlanVersion)
	}
	if len(p.Sources) == 0 {
		return fmt.Errorf("%w: no sources", ErrEmptyPlan)
	}
	seen := map[string]bool{}
	for i, src := range p.Sources {
		if src.Name == "" {
			return fmt.Errorf("%w: source %d", ErrEmptySource, i)
		}
		if seen[src.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateSource, src.Name)
		}
		seen[src.Name] = true
		if err := src.Plan.Validate(); err != nil {
			return fmt.Errorf("feataug: source %q: %w", src.Name, err)
		}
	}
	return nil
}

// Encode serialises the plan as indented JSON.
func (p *MultiFeaturePlan) Encode() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(p, "", "  ")
}

// DecodeMultiPlan deserialises a MultiFeaturePlan and validates it. As with
// DecodePlan, the version gate runs from a header probe before the body
// decodes, so a future version carrying names this build cannot parse still
// reports ErrPlanVersion rather than a decode error, and bytes that do not
// parse as JSON at all fail with ErrPlanCorrupt.
func DecodeMultiPlan(data []byte) (*MultiFeaturePlan, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrPlanCorrupt)
	}
	var header struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &header); err != nil {
		return nil, fmt.Errorf("%w: decode multi plan: %v", ErrPlanCorrupt, err)
	}
	if header.Version != MultiPlanVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrPlanVersion, header.Version, MultiPlanVersion)
	}
	var p MultiFeaturePlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: decode multi plan: %v", ErrPlanCorrupt, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// SourceNames returns the source names in plan order.
func (p *MultiFeaturePlan) SourceNames() []string {
	out := make([]string, len(p.Sources))
	for i, src := range p.Sources {
		out[i] = src.Name
	}
	return out
}

// FeatureNames returns every output column name, source-major.
func (p *MultiFeaturePlan) FeatureNames() []string {
	var out []string
	for _, src := range p.Sources {
		out = append(out, src.Plan.FeatureNames()...)
	}
	return out
}

// NamedQueries returns every planned query with its owning source name,
// source-major.
func (p *MultiFeaturePlan) NamedQueries() []NamedQuery {
	var out []NamedQuery
	for _, src := range p.Sources {
		for _, pq := range src.Plan.Queries {
			out = append(out, NamedQuery{Source: src.Name, Query: pq.Query})
		}
	}
	return out
}

// Transformer binds the plan to its relevant tables by source name and
// returns the multi-table online transform entry point. Every source must be
// bound (ErrMissingSource), each table must carry the columns its source's
// queries reference (ErrKeyMismatch / ErrSchemaMismatch, as in
// FeaturePlan.Transformer), and the column kinds must match the fit-time
// schema fingerprint (ErrSchemaMismatch). Tables for names the plan does not
// mention are ignored. Each source gets its own cached batch executor, built
// once and shared across Transform calls, whose scan state lives with its
// source table. Executor options (e.g. query.WithParallelism) apply to every
// per-source executor.
func (p *MultiFeaturePlan) Transformer(relevantByName map[string]*dataframe.Table, opts ...query.ExecutorOption) (*MultiTransformer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mt := &MultiTransformer{plan: p}
	for i := range p.Sources {
		src := &p.Sources[i]
		tbl, ok := relevantByName[src.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingSource, src.Name)
		}
		if tbl == nil {
			return nil, fmt.Errorf("%w: relevant table %q", ErrNilTable, src.Name)
		}
		tr, err := src.Plan.Transformer(tbl, opts...)
		if err != nil {
			return nil, fmt.Errorf("feataug: source %q: %w", src.Name, err)
		}
		if got := schemaFingerprint(tbl, src.Plan.referencedColumns()); got != src.SchemaFingerprint {
			return nil, fmt.Errorf("%w: source %q schema fingerprint %s does not match plan's %s",
				ErrSchemaMismatch, src.Name, got, src.SchemaFingerprint)
		}
		mt.sources = append(mt.sources, tr)
	}
	return mt, nil
}

// MultiTransformer applies a fitted MultiFeaturePlan to new tables: one
// shared cached executor per source, all features merged onto one output
// table. Safe for concurrent Transform calls.
type MultiTransformer struct {
	plan    *MultiFeaturePlan
	sources []*Transformer
}

// Plan returns the plan the transformer was built from.
func (t *MultiTransformer) Plan() *MultiFeaturePlan { return t.plan }

// FeatureNames returns the column names Transform appends, in order.
func (t *MultiTransformer) FeatureNames() []string { return t.plan.FeatureNames() }

// Stats returns the merged executor counters across every source's executor.
func (t *MultiTransformer) Stats() query.ExecutorStats {
	var s query.ExecutorStats
	for _, tr := range t.sources {
		s = s.Add(tr.Executor().Stats())
	}
	return s
}

// Transform materialises every planned feature of every source onto d, in
// plan order: each source's queries run against its bound relevant table
// through that source's cached executor and left-join on the source plan's
// keys (NULL on join miss). d is not mutated; the result is a new table. A
// table missing any source's join keys fails with ErrKeyMismatch before any
// query runs; cancellation aborts the current batch and returns an error
// wrapping ctx.Err().
func (t *MultiTransformer) Transform(ctx context.Context, d *dataframe.Table) (*dataframe.Table, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: transform input", ErrNilTable)
	}
	// All-or-nothing key validation up front, so no source has run when any
	// source's keys are missing.
	for i, tr := range t.sources {
		if err := tr.checkKeys(d); err != nil {
			return nil, fmt.Errorf("feataug: source %q: %w", t.plan.Sources[i].Name, err)
		}
	}
	out := d.Clone()
	for i, tr := range t.sources {
		// Keys were checked once above for every source; go straight to a
		// pass of the source's prepared batch. Each source's features arrive
		// in one flat buffer and append in bulk.
		m, err := tr.prep.AugmentMatrix(ctx, d)
		if err != nil {
			return nil, fmt.Errorf("feataug: source %q: %w", t.plan.Sources[i].Name, err)
		}
		if err := out.AddFloatColumnsFlat(tr.plan.FeatureNames(), m.Vals, m.Valid); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Matrix materialises every source's planned feature vectors for d as one
// combined columnar FeatureMatrix, columns source-major in FeatureNames
// order — the multi-table counterpart of Transformer.Matrix, used by the
// serving coalescer.
func (t *MultiTransformer) Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: transform input", ErrNilTable)
	}
	for i, tr := range t.sources {
		if err := tr.checkKeys(d); err != nil {
			return nil, fmt.Errorf("feataug: source %q: %w", t.plan.Sources[i].Name, err)
		}
	}
	out := query.NewFeatureMatrix(d.NumRows(), len(t.plan.FeatureNames()))
	col := 0
	for i, tr := range t.sources {
		m, err := tr.prep.AugmentMatrix(ctx, d)
		if err != nil {
			return nil, fmt.Errorf("feataug: source %q: %w", t.plan.Sources[i].Name, err)
		}
		for j := 0; j < m.NumFeatures(); j++ {
			sv, sok := m.Col(j)
			dv, dok := out.Col(col)
			copy(dv, sv)
			copy(dok, sok)
			col++
		}
	}
	return out, nil
}

// RequiredKeys returns the union of join-key columns across every source's
// queries, in first-seen source-major order — the columns a transform input
// table must carry.
func (t *MultiTransformer) RequiredKeys() []string {
	var out []string
	seen := map[string]bool{}
	for _, tr := range t.sources {
		for _, k := range tr.RequiredKeys() {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}
