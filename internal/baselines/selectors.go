package baselines

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/stats"
)

// SelectorKind names the feature selectors stacked on Featuretools in the
// paper's comparison (Section VII.A.3).
type SelectorKind int

// Selector kinds.
const (
	SelectorNone SelectorKind = iota
	SelectorLR
	SelectorGBDT
	SelectorMI
	SelectorChi2
	SelectorGini
	SelectorForward
	SelectorBackward
)

// String names the selector the way Table III abbreviates it.
func (k SelectorKind) String() string {
	switch k {
	case SelectorNone:
		return "FT"
	case SelectorLR:
		return "FT+LR"
	case SelectorGBDT:
		return "FT+GBDT"
	case SelectorMI:
		return "FT+MI"
	case SelectorChi2:
		return "FT+Chi2"
	case SelectorGini:
		return "FT+Gini"
	case SelectorForward:
		return "FT+Forward"
	case SelectorBackward:
		return "FT+Backward"
	}
	return fmt.Sprintf("SelectorKind(%d)", int(k))
}

// SupportsTask reports whether the selector applies to a task: Chi2 and Gini
// are classification-only (the paper leaves their regression cells blank),
// and the wrapper selectors apply everywhere.
func (k SelectorKind) SupportsTask(task ml.Task) bool {
	switch k {
	case SelectorChi2, SelectorGini:
		return task != ml.Regression
	}
	return true
}

// SelectFeatures applies the selector to the candidate features and returns
// the chosen queries (at most k).
func SelectFeatures(e *pipeline.Evaluator, candidates []query.Query, kind SelectorKind, k int) ([]query.Query, error) {
	if k <= 0 {
		return nil, fmt.Errorf("baselines: k must be positive")
	}
	fm, err := Materialize(e, candidates)
	if err != nil {
		return nil, err
	}
	if kind == SelectorNone || len(candidates) <= k {
		if kind == SelectorNone {
			return candidates, nil
		}
	}
	switch kind {
	case SelectorNone:
		return candidates, nil
	case SelectorMI, SelectorChi2, SelectorGini:
		return filterSelect(e, fm, kind, k)
	case SelectorLR:
		return modelImportanceSelect(e, fm, ml.KindLR, k)
	case SelectorGBDT:
		return modelImportanceSelect(e, fm, ml.KindXGB, k)
	case SelectorForward:
		return forwardSelect(e, fm, k)
	case SelectorBackward:
		return backwardSelect(e, fm, k)
	}
	return nil, fmt.Errorf("baselines: unknown selector %d", int(kind))
}

// filterSelect ranks features by a univariate statistic against the labels.
func filterSelect(e *pipeline.Evaluator, fm *FeatureMatrix, kind SelectorKind, k int) ([]query.Query, error) {
	labels := e.P.Labels()
	if (kind == SelectorChi2 || kind == SelectorGini) && e.P.Task == ml.Regression {
		return nil, fmt.Errorf("baselines: %s does not support regression", kind)
	}
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, len(fm.Queries))
	codes := stats.CodeLabels(labels)
	for i := range fm.Queries {
		var score float64
		switch kind {
		case SelectorMI:
			score = stats.MIScore(fm.Vals[i], fm.Valid[i], codes, stats.DefaultBins)
		case SelectorChi2:
			x := stats.Discretize(fm.Vals[i], fm.Valid[i], stats.DefaultBins)
			score = stats.ChiSquare(x, labels)
		case SelectorGini:
			x := stats.Discretize(fm.Vals[i], fm.Valid[i], stats.DefaultBins)
			score = stats.GiniGain(x, labels)
		}
		ss[i] = scored{idx: i, score: score}
	}
	sort.SliceStable(ss, func(a, b int) bool { return ss[a].score > ss[b].score })
	if k > len(ss) {
		k = len(ss)
	}
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		idx[i] = ss[i].idx
	}
	return fm.Select(idx), nil
}

// modelImportanceSelect trains one model on all candidate features and keeps
// the top-k by the model's importance signal (|coef| for LR, split gain for
// GBDT).
func modelImportanceSelect(e *pipeline.Evaluator, fm *FeatureMatrix, kind ml.Kind, k int) ([]query.Query, error) {
	X, y := fm.denseMatrix(e)
	var importance []float64
	switch kind {
	case ml.KindLR:
		m := ml.NewLinear(e.P.Task, ml.LinearOptions{Seed: e.Seed})
		if err := m.Fit(X, y); err != nil {
			return nil, err
		}
		importance = m.Coefficients()
	case ml.KindXGB:
		m := ml.NewGBDT(e.P.Task, ml.GBDTOptions{Seed: e.Seed})
		if err := m.Fit(X, y); err != nil {
			return nil, err
		}
		importance = m.FeatureImportance()
	default:
		return nil, fmt.Errorf("baselines: no importance for %s", kind)
	}
	// The first len(BaseFeatures) columns are the base features; candidate
	// importances start after them.
	offset := len(e.P.BaseFeatures)
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, len(fm.Queries))
	for i := range fm.Queries {
		ss[i] = scored{idx: i, score: importance[offset+i]}
	}
	sort.SliceStable(ss, func(a, b int) bool { return ss[a].score > ss[b].score })
	if k > len(ss) {
		k = len(ss)
	}
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		idx[i] = ss[i].idx
	}
	return fm.Select(idx), nil
}

// denseMatrix builds [base features | candidate features] with imputation.
func (fm *FeatureMatrix) denseMatrix(e *pipeline.Evaluator) ([][]float64, []float64) {
	n := e.P.Train.NumRows()
	base := make([][]float64, len(e.P.BaseFeatures))
	for j, name := range e.P.BaseFeatures {
		col := e.P.Train.Column(name)
		vals, valid := col.Floats()
		mean, cnt := 0.0, 0
		for i := range vals {
			if valid[i] {
				mean += vals[i]
				cnt++
			}
		}
		if cnt > 0 {
			mean /= float64(cnt)
		}
		for i := range vals {
			if !valid[i] {
				vals[i] = mean
			}
		}
		base[j] = vals
	}
	cands := make([][]float64, len(fm.Queries))
	for i := range fm.Queries {
		cands[i] = fm.imputed(i)
	}
	X := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(base)+len(cands))
		for j := range base {
			row[j] = base[j][i]
		}
		for j := range cands {
			row[len(base)+j] = cands[j][i]
		}
		X[i] = row
	}
	return X, e.P.YFloat()
}

// forwardSelect greedily adds the feature with the best validation
// improvement until k features are chosen (Section VII.A.3 Forward).
// Candidates are tried in index order, so a tie goes to the lowest index.
func forwardSelect(e *pipeline.Evaluator, fm *FeatureMatrix, k int) ([]query.Query, error) {
	chosen := []int{}
	used := make([]bool, len(fm.Queries))
	for len(chosen) < k && len(chosen) < len(fm.Queries) {
		bestIdx, bestMetric := -1, math.Inf(-1)
		for i := range fm.Queries {
			if used[i] {
				continue
			}
			trial := append(append([]int(nil), chosen...), i)
			valid, _, err := e.QuerySetScores(fm.Select(trial))
			if err != nil {
				return nil, err
			}
			metric := orient(e, valid)
			if metric > bestMetric {
				bestMetric, bestIdx = metric, i
			}
		}
		chosen = append(chosen, bestIdx)
		used[bestIdx] = true
	}
	sort.Ints(chosen)
	return fm.Select(chosen), nil
}

// backwardSelect starts from all candidates and drops the feature whose
// removal most improves (or least degrades) validation, until k remain.
func backwardSelect(e *pipeline.Evaluator, fm *FeatureMatrix, k int) ([]query.Query, error) {
	cur := make([]int, len(fm.Queries))
	for i := range cur {
		cur[i] = i
	}
	for len(cur) > k {
		bestDrop, bestMetric := -1, math.Inf(-1)
		for drop := range cur {
			trial := make([]int, 0, len(cur)-1)
			for j, idx := range cur {
				if j != drop {
					trial = append(trial, idx)
				}
			}
			valid, _, err := e.QuerySetScores(fm.Select(trial))
			if err != nil {
				return nil, err
			}
			metric := orient(e, valid)
			if metric > bestMetric {
				bestMetric, bestDrop = metric, drop
			}
		}
		cur = append(cur[:bestDrop], cur[bestDrop+1:]...)
	}
	return fm.Select(cur), nil
}

// orient maps a validation metric to higher-is-better.
func orient(e *pipeline.Evaluator, metric float64) float64 {
	if ml.HigherIsBetter(e.P.Task) {
		return metric
	}
	return -metric
}
