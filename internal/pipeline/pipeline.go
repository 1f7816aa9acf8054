// Package pipeline provides the shared evaluation plumbing of the paper's
// experimental protocol: given a training table D, a relevant table R and a
// downstream model, it augments candidate queries onto D (Definition 3),
// splits 0.6/0.2/0.2, trains the model, and reports validation loss
// (Problem 1's objective) plus the low-cost proxy scores of Section V.C /
// VI.C (MI, Spearman, LR). Both the FeatAug engine and every baseline run
// through this package so comparisons are apples-to-apples.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dataframe"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/stats"
)

// Problem describes one dataset in template terms (the union of Table I and
// Table II information).
type Problem struct {
	Train        *dataframe.Table
	Relevant     *dataframe.Table
	Label        string
	Task         ml.Task
	Keys         []string
	AggAttrs     []string
	PredAttrs    []string
	BaseFeatures []string
}

// Normalized returns a copy of the problem with the defaulting rules applied:
// empty PredAttrs defaults to AggAttrs (Section IV's template quadruple always
// has a predicate-attribute set; aggregation attributes are the natural
// fallback). This is the single place the rule lives — NewEvaluator applies
// it, so the single-table Fit path and the multi-table FitMulti/AugmentMulti
// path behave identically.
func (p Problem) Normalized() Problem {
	if len(p.PredAttrs) == 0 && len(p.AggAttrs) > 0 {
		p.PredAttrs = append([]string(nil), p.AggAttrs...)
	}
	return p
}

// Validate checks the problem is internally consistent: tables present, the
// label on the training side only, keys on both sides, and every template
// ingredient (aggregation and predicate attributes) present in the relevant
// table.
func (p *Problem) Validate() error {
	if p.Train == nil || p.Relevant == nil {
		return fmt.Errorf("pipeline: nil tables")
	}
	if !p.Train.HasColumn(p.Label) {
		return fmt.Errorf("pipeline: training table has no label %q", p.Label)
	}
	if len(p.Keys) == 0 {
		return fmt.Errorf("pipeline: no foreign keys")
	}
	for _, k := range p.Keys {
		if !p.Train.HasColumn(k) || !p.Relevant.HasColumn(k) {
			return fmt.Errorf("pipeline: key %q missing from a table", k)
		}
	}
	for _, a := range p.AggAttrs {
		if !p.Relevant.HasColumn(a) {
			return fmt.Errorf("pipeline: aggregation attribute %q missing from relevant table", a)
		}
	}
	for _, a := range p.PredAttrs {
		if !p.Relevant.HasColumn(a) {
			return fmt.Errorf("pipeline: predicate attribute %q missing from relevant table", a)
		}
	}
	for _, f := range p.BaseFeatures {
		if f == p.Label {
			return fmt.Errorf("pipeline: label %q listed as a base feature (target leak)", p.Label)
		}
	}
	return nil
}

// Labels extracts the label column as ints (classification) for proxy
// computation; regression targets are discretised.
func (p *Problem) Labels() []int {
	col := p.Train.Column(p.Label)
	y := make([]float64, p.Train.NumRows())
	for i := range y {
		v, _ := col.AsFloat(i)
		y[i] = v
	}
	return stats.LabelsFromFloat(y, stats.DefaultBins)
}

// YFloat extracts the label column as float64.
func (p *Problem) YFloat() []float64 {
	col := p.Train.Column(p.Label)
	y := make([]float64, p.Train.NumRows())
	for i := range y {
		v, _ := col.AsFloat(i)
		y[i] = v
	}
	return y
}

// ProxyKind selects the low-cost proxy (Table VIII's SC / MI / LR).
type ProxyKind int

// Proxy kinds.
const (
	ProxyMI ProxyKind = iota
	ProxySC
	ProxyLR
)

// String names the proxy as the paper abbreviates it.
func (k ProxyKind) String() string {
	switch k {
	case ProxyMI:
		return "MI"
	case ProxySC:
		return "SC"
	case ProxyLR:
		return "LR"
	}
	return fmt.Sprintf("ProxyKind(%d)", int(k))
}

// Evaluator evaluates feature sets against a downstream model. It caches
// query executions and real-model evaluations by query identity, because the
// search procedures revisit queries. All query execution runs through one
// shared batch executor over the relevant table, so group indexes, predicate
// bitmaps and plan-group discoveries are computed once per problem rather
// than once per query — and batched calls (FeatureBatch) additionally ride
// the executor's fused shared-scan path, one set of scans per distinct
// (keys, WHERE-mask) plan group instead of one per query.
//
// An Evaluator is safe for concurrent use. Each cache holds one
// single-flight entry per query, so concurrent searches that meet the same
// query materialise and fit it exactly once, and the work counters below
// come out the same whatever the interleaving.
type Evaluator struct {
	P         Problem
	Model     ml.Kind
	Seed      int64
	TrainFrac float64 // 0 → 0.6
	ValidFrac float64 // 0 → 0.2

	// Evaluations counts real model fits, the paper's cost unit.
	Evaluations int
	// FitTime is the time spent inside those fits' model.Fit calls, summed
	// over fits (concurrent fits each count in full).
	FitTime time.Duration
	// ProxyEvaluations counts proxy computations, the LR proxy's model fits
	// included.
	ProxyEvaluations int
	// The three counters are written under mu; read them once no call is in
	// flight.

	exec   *query.Executor
	labels []int
	yfloat []float64

	mu        sync.Mutex
	featCache map[string]*featEntry
	lossCache map[string]*lossEntry

	baseOnce sync.Once
	base     baseColumns
}

// featEntry is one query's single-flight feature slot. A slot created by a
// batch fills from that batch's matrix, which runs once for all its slots.
type featEntry struct {
	once  sync.Once
	batch *featBatch
	col   int
	vals  []float64
	valid []bool
	err   error
}

// featBatch is one FeatureBatchContext call's materialisation of its misses.
type featBatch struct {
	once sync.Once
	ctx  context.Context
	qs   []query.Query
	m    *query.FeatureMatrix
	err  error
}

// lossEntry is one query's single-flight real-loss slot.
type lossEntry struct {
	once sync.Once
	loss float64
	err  error
}

// baseColumns are the training table's base features as float views, the
// fixed part of every candidate dataset.
type baseColumns struct {
	names  []string
	cols   [][]float64
	valids [][]bool
	err    error
}

// NewEvaluator constructs an evaluator for a problem/model pair. The problem
// is normalized first (Normalized), so empty PredAttrs default to AggAttrs
// uniformly across every entry point built on an evaluator.
func NewEvaluator(p Problem, model ml.Kind, seed int64) (*Evaluator, error) {
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{
		P: p, Model: model, Seed: seed,
		TrainFrac: 0.6, ValidFrac: 0.2,
		exec:      query.NewExecutor(p.Relevant),
		featCache: map[string]*featEntry{},
		lossCache: map[string]*lossEntry{},
		labels:    p.Labels(),
		yfloat:    p.YFloat(),
	}, nil
}

// Executor exposes the shared batch executor over the relevant table.
func (e *Evaluator) Executor() *query.Executor { return e.exec }

// Feature materialises the feature a query produces, aligned with the
// training table rows (NULL on join miss), caching by the query's SQL text.
func (e *Evaluator) Feature(q query.Query) ([]float64, []bool, error) {
	key := q.SQL("R")
	e.mu.Lock()
	ent, ok := e.featCache[key]
	if !ok {
		ent = &featEntry{}
		e.featCache[key] = ent
	}
	e.mu.Unlock()
	return e.resolveFeature(key, q, ent)
}

// resolveFeature fills ent once — from its batch's matrix, or by executing q
// alone — and returns its contents. A failed slot is dropped from the cache
// so a later call retries, as an uncached miss would.
func (e *Evaluator) resolveFeature(key string, q query.Query, ent *featEntry) ([]float64, []bool, error) {
	ent.once.Do(func() {
		if b := ent.batch; b != nil {
			b.once.Do(func() { b.m, b.err = e.exec.AugmentMatrix(b.ctx, e.P.Train, b.qs) })
			if ent.err = b.err; b.err == nil {
				ent.vals, ent.valid = b.m.Col(ent.col)
			}
			return
		}
		m, err := e.exec.AugmentMatrix(context.Background(), e.P.Train, []query.Query{q})
		if ent.err = err; err == nil {
			ent.vals, ent.valid = m.Col(0)
		}
	})
	if ent.err != nil {
		e.mu.Lock()
		if e.featCache[key] == ent {
			delete(e.featCache, key)
		}
		e.mu.Unlock()
		return nil, nil, ent.err
	}
	return ent.vals, ent.valid, nil
}

// FeatureBatch materialises many candidate features at once: queries missing
// from the cache are deduplicated and executed concurrently on the batch
// executor's worker pool, then every result is returned in input order. The
// search procedures use it to pay the per-query execute-and-join cost in
// parallel wherever a whole slice of candidates is known up front.
func (e *Evaluator) FeatureBatch(qs []query.Query) ([][]float64, [][]bool, error) {
	return e.FeatureBatchContext(context.Background(), qs)
}

// FeatureBatchContext is FeatureBatch under a context: cancellation aborts
// the executor batch promptly and surfaces ctx.Err().
func (e *Evaluator) FeatureBatchContext(ctx context.Context, qs []query.Query) ([][]float64, [][]bool, error) {
	keys := make([]string, len(qs))
	ents := make([]*featEntry, len(qs))
	// Columnar bulk materialisation: every miss becomes a slot of one batch,
	// whose flat buffer the cache then holds views into.
	b := &featBatch{ctx: ctx}
	e.mu.Lock()
	for i, q := range qs {
		k := q.SQL("R")
		keys[i] = k
		ent, ok := e.featCache[k]
		if !ok {
			ent = &featEntry{batch: b, col: len(b.qs)}
			e.featCache[k] = ent
			b.qs = append(b.qs, q)
		}
		ents[i] = ent
	}
	e.mu.Unlock()
	outVals := make([][]float64, len(qs))
	outValid := make([][]bool, len(qs))
	var firstErr error
	for i, ent := range ents {
		// Resolve every slot even after a failure, so each failed one is
		// dropped now rather than handing a stale error to a later caller.
		vals, valid, err := e.resolveFeature(keys[i], qs[i], ent)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		outVals[i], outValid[i] = vals, valid
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return outVals, outValid, nil
}

// ProxyScore computes the low-cost proxy for one query; higher is better for
// every proxy kind, so callers minimising loss should negate it.
func (e *Evaluator) ProxyScore(q query.Query, kind ProxyKind) (float64, error) {
	vals, valid, err := e.Feature(q)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.ProxyEvaluations++
	e.mu.Unlock()
	switch kind {
	case ProxyMI:
		return stats.MIScore(vals, valid, e.labels, stats.DefaultBins), nil
	case ProxySC:
		return math.Abs(stats.Spearman(vals, e.yfloat, valid)), nil
	case ProxyLR:
		// Train a logistic/linear model on base features + candidate and
		// return its validation metric mapped to higher-is-better. The fit
		// is a proxy computation, not a downstream-model evaluation.
		loss, err := e.lossWithFeature(vals, valid, ml.KindLR, false)
		if err != nil {
			return 0, err
		}
		return -loss, nil
	}
	return 0, fmt.Errorf("pipeline: unknown proxy %d", int(kind))
}

// QueryLoss evaluates a single candidate query under the real downstream
// model: base features + the candidate feature, split, fit, validation loss.
// Results are cached by query identity.
func (e *Evaluator) QueryLoss(q query.Query) (float64, error) {
	key := q.SQL("R")
	e.mu.Lock()
	ent, ok := e.lossCache[key]
	if !ok {
		ent = &lossEntry{}
		e.lossCache[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() { ent.loss, ent.err = e.queryLoss(q) })
	if ent.err != nil {
		e.mu.Lock()
		if e.lossCache[key] == ent {
			delete(e.lossCache, key)
		}
		e.mu.Unlock()
		return 0, ent.err
	}
	return ent.loss, nil
}

// queryLoss is QueryLoss's uncached body, counting the model fit.
func (e *Evaluator) queryLoss(q query.Query) (float64, error) {
	vals, valid, err := e.Feature(q)
	if err != nil {
		return 0, err
	}
	if degenerate(vals, valid) {
		// An all-NULL or constant feature carries no information; give it a
		// sentinel loss so search procedures prune it instead of treating it
		// as a baseline-equivalent "safe" choice.
		return DegenerateLoss, nil
	}
	return e.lossWithFeature(vals, valid, e.Model, true)
}

// DegenerateLoss is the sentinel loss assigned to queries whose feature is
// all-NULL or constant.
const DegenerateLoss = 1e9

// degenerate reports whether a feature is all-NULL or constant over the
// non-null rows.
func degenerate(vals []float64, valid []bool) bool {
	first, seen := 0.0, false
	for i, v := range vals {
		if !valid[i] {
			continue
		}
		if !seen {
			first, seen = v, true
			continue
		}
		if v != first {
			return false
		}
	}
	return true
}

// lossWithFeature trains the given model kind on base features plus one
// materialised candidate and returns validation loss; counted says whether
// the fit is a downstream-model evaluation. The dataset is assembled
// columnar over the base features' cached float views plus the candidate:
// the values ml.FromTable would read off a table holding the candidate as a
// column, since the executor already stores NaN aggregates as NULL, as
// dataframe.NewFloatColumn would.
func (e *Evaluator) lossWithFeature(vals []float64, valid []bool, kind ml.Kind, counted bool) (float64, error) {
	base, err := e.baseColumns()
	if err != nil {
		return 0, err
	}
	n := len(base.names)
	// Full slice expressions: the appends copy, never writing into the
	// shared views.
	ds, err := ml.FromColumns(append(base.names[:n:n], "__cand"),
		append(base.cols[:n:n], vals), append(base.valids[:n:n], valid),
		e.P.Train.Column(e.P.Label))
	if err != nil {
		return 0, err
	}
	loss, _, err := e.scoreDataset(ds, kind, counted)
	return loss, err
}

// baseColumns returns the base features' float views, built once.
func (e *Evaluator) baseColumns() (baseColumns, error) {
	e.baseOnce.Do(func() {
		for _, name := range e.P.BaseFeatures {
			col := e.P.Train.Column(name)
			if col == nil {
				e.base.err = fmt.Errorf("ml: no feature column %q", name)
				return
			}
			v, ok := col.Floats()
			e.base.names = append(e.base.names, name)
			e.base.cols, e.base.valids = append(e.base.cols, v), append(e.base.valids, ok)
		}
	})
	return e.base, e.base.err
}

// QuerySetScores materialises all queries as feature vectors — in one fused
// executor batch rather than query by query — and evaluates base features
// plus the whole set. The dataset is assembled columnar (ml.FromColumns over
// the batch's feature views), skipping the training-table clone and
// per-column table copies the table path pays.
func (e *Evaluator) QuerySetScores(qs []query.Query) (validMetric, testMetric float64, err error) {
	vals, valid, err := e.FeatureBatch(qs)
	if err != nil {
		return 0, 0, err
	}
	base, err := e.baseColumns()
	if err != nil {
		return 0, 0, err
	}
	n := len(base.names)
	names, cols, valids := base.names[:n:n], base.cols[:n:n], base.valids[:n:n]
	for i := range qs {
		names = append(names, fmt.Sprintf("feat_%d", i))
		cols, valids = append(cols, vals[i]), append(valids, valid[i])
	}
	ds, err := ml.FromColumns(names, cols, valids, e.P.Train.Column(e.P.Label))
	if err != nil {
		return 0, 0, err
	}
	_, scores, err := e.scoreDataset(ds, e.Model, true)
	if err != nil {
		return 0, 0, err
	}
	return scores[0], scores[1], nil
}

// scoreDataset is the post-assembly half of the protocol, shared by the
// table path (BaselineScores) and the columnar paths. When counted, the model
// fit adds to FitTime and, if it succeeds, to Evaluations: only
// downstream-model fits are evaluations.
func (e *Evaluator) scoreDataset(ds *ml.Dataset, kind ml.Kind, counted bool) (float64, [2]float64, error) {
	split, err := ml.SplitDataset(ds, e.TrainFrac, e.ValidFrac, e.Seed)
	if err != nil {
		return 0, [2]float64{}, err
	}
	model, err := ml.New(kind, e.P.Task, e.Seed)
	if err != nil {
		return 0, [2]float64{}, err
	}
	t0 := time.Now()
	err = model.Fit(split.Train.X, split.Train.Y)
	if counted {
		e.mu.Lock()
		e.FitTime += time.Since(t0)
		if err == nil {
			e.Evaluations++
		}
		e.mu.Unlock()
	}
	if err != nil {
		return 0, [2]float64{}, err
	}
	validPred := model.Predict(split.Valid.X)
	loss, err := ml.Loss(e.P.Task, validPred, split.Valid.Y)
	if err != nil {
		return 0, [2]float64{}, err
	}
	validMetric, err := ml.Metric(e.P.Task, validPred, split.Valid.Y)
	if err != nil {
		return 0, [2]float64{}, err
	}
	testPred := model.Predict(split.Test.X)
	testMetric, err := ml.Metric(e.P.Task, testPred, split.Test.Y)
	if err != nil {
		return 0, [2]float64{}, err
	}
	return loss, [2]float64{validMetric, testMetric}, nil
}

// BaselineScores evaluates the model on base features alone, the "no
// augmentation" reference point.
func (e *Evaluator) BaselineScores() (validMetric, testMetric float64, err error) {
	if len(e.P.BaseFeatures) == 0 {
		return 0, 0, fmt.Errorf("pipeline: no base features to evaluate")
	}
	ds, err := ml.FromTable(e.P.Train, e.P.BaseFeatures, e.P.Label)
	if err != nil {
		return 0, 0, err
	}
	_, scores, err := e.scoreDataset(ds, e.Model, true)
	if err != nil {
		return 0, 0, err
	}
	return scores[0], scores[1], nil
}
