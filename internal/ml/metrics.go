package ml

import (
	"fmt"
	"math"
	"sort"
)

// AUC returns the area under the ROC curve given P(y=1) scores and binary
// labels, computed via the rank statistic (ties get average rank). Returns
// 0.5 when only one class is present.
func AUC(scores, y []float64) float64 {
	if len(scores) != len(y) || len(scores) == 0 {
		return 0.5
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	nPos, nNeg := 0.0, 0.0
	for _, v := range y {
		if v >= 0.5 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	// Sum positive ranks with tie averaging.
	rankSum := 0.0
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		avgRank := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if y[idx[k]] >= 0.5 {
				rankSum += avgRank
			}
		}
		i = j
	}
	return (rankSum - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// RMSE returns the root mean squared error.
func RMSE(pred, y []float64) float64 {
	if len(pred) != len(y) || len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// F1Macro returns the macro-averaged F1 over classes 0..k-1 (classes absent
// from both prediction and truth contribute 0, scikit-learn's zero_division
// default).
func F1Macro(pred []int, y []float64, k int) float64 {
	if k <= 0 || len(pred) != len(y) || len(pred) == 0 {
		return 0
	}
	tp := make([]float64, k)
	fp := make([]float64, k)
	fn := make([]float64, k)
	for i := range pred {
		t := int(y[i])
		p := pred[i]
		if p == t {
			tp[p]++
		} else {
			if p >= 0 && p < k {
				fp[p]++
			}
			if t >= 0 && t < k {
				fn[t]++
			}
		}
	}
	f1 := 0.0
	for c := 0; c < k; c++ {
		den := 2*tp[c] + fp[c] + fn[c]
		if den > 0 {
			f1 += 2 * tp[c] / den
		}
	}
	return f1 / float64(k)
}

// Argmax converts probability rows to class predictions.
func Argmax(proba [][]float64) []int {
	out := make([]int, len(proba))
	for i, row := range proba {
		best, bestV := 0, math.Inf(-1)
		for c, v := range row {
			if v > bestV {
				best, bestV = c, v
			}
		}
		out[i] = best
	}
	return out
}

// Metric evaluates predictions for a task the way the paper's tables do:
// AUC for binary, macro F1 for multiclass, RMSE for regression. Higher is
// better for classification; lower is better for regression — use Loss for a
// uniform minimisation objective.
func Metric(task Task, preds [][]float64, y []float64) (float64, error) {
	switch task {
	case Binary:
		scores := make([]float64, len(preds))
		for i, row := range preds {
			scores[i] = row[0]
		}
		return AUC(scores, y), nil
	case MultiClass:
		k := 0
		if len(preds) > 0 {
			k = len(preds[0])
		}
		return F1Macro(Argmax(preds), y, k), nil
	case Regression:
		vals := make([]float64, len(preds))
		for i, row := range preds {
			vals[i] = row[0]
		}
		return RMSE(vals, y), nil
	}
	return 0, fmt.Errorf("ml: unknown task %d", int(task))
}

// Loss maps the task metric into a minimisation objective: 1-AUC, 1-F1, or
// RMSE, the form Problem 1 uses.
func Loss(task Task, preds [][]float64, y []float64) (float64, error) {
	m, err := Metric(task, preds, y)
	if err != nil {
		return 0, err
	}
	if task == Regression {
		return m, nil
	}
	return 1 - m, nil
}

// MetricName returns the paper's metric label for a task.
func MetricName(task Task) string {
	switch task {
	case Binary:
		return "AUC"
	case MultiClass:
		return "F1"
	case Regression:
		return "RMSE"
	}
	return "?"
}

// HigherIsBetter reports the orientation of the task metric.
func HigherIsBetter(task Task) bool { return task != Regression }
