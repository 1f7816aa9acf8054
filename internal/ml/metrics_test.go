package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAUCPerfectAndInverted(t *testing.T) {
	y := []float64{0, 0, 1, 1}
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, y); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	if got := AUC([]float64{0.9, 0.8, 0.2, 0.1}, y); got != 0 {
		t.Errorf("inverted AUC = %v", got)
	}
	if got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, y); got != 0.5 {
		t.Errorf("constant AUC = %v", got)
	}
}

func TestAUCDegenerate(t *testing.T) {
	if got := AUC([]float64{0.1}, []float64{1}); got != 0.5 {
		t.Errorf("single-class AUC = %v", got)
	}
	if got := AUC(nil, nil); got != 0.5 {
		t.Errorf("empty AUC = %v", got)
	}
	if got := AUC([]float64{1}, []float64{1, 0}); got != 0.5 {
		t.Errorf("mismatched AUC = %v", got)
	}
}

func TestAUCTiesAveraged(t *testing.T) {
	// one positive and one negative share a score: AUC contribution 0.5
	got := AUC([]float64{0.5, 0.5}, []float64{0, 1})
	if got != 0.5 {
		t.Errorf("tied AUC = %v", got)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("zero RMSE = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE(nil, nil)) {
		t.Error("empty RMSE should be NaN")
	}
}

func TestF1Macro(t *testing.T) {
	// perfect
	if got := F1Macro([]int{0, 1, 2}, []float64{0, 1, 2}, 3); got != 1 {
		t.Errorf("perfect F1 = %v", got)
	}
	// all wrong
	if got := F1Macro([]int{1, 2, 0}, []float64{0, 1, 2}, 3); got != 0 {
		t.Errorf("all-wrong F1 = %v", got)
	}
	// known mixed case: pred [0,0,1,1], y [0,1,0,1]
	// class0: tp=1 fp=1 fn=1 → f1=0.5; class1 same → macro 0.5
	if got := F1Macro([]int{0, 0, 1, 1}, []float64{0, 1, 0, 1}, 2); got != 0.5 {
		t.Errorf("mixed F1 = %v", got)
	}
	if got := F1Macro(nil, nil, 2); got != 0 {
		t.Errorf("empty F1 = %v", got)
	}
	if got := F1Macro([]int{0}, []float64{0}, 0); got != 0 {
		t.Errorf("k=0 F1 = %v", got)
	}
}

func TestArgmax(t *testing.T) {
	got := Argmax([][]float64{{0.1, 0.9}, {0.7, 0.3}})
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("argmax = %v", got)
	}
}

func TestMetricAndLossDispatch(t *testing.T) {
	preds := [][]float64{{0.9}, {0.1}}
	y := []float64{1, 0}
	if m, err := Metric(Binary, preds, y); err != nil || m != 1 {
		t.Errorf("binary metric = %v, %v", m, err)
	}
	if l, err := Loss(Binary, preds, y); err != nil || l != 0 {
		t.Errorf("binary loss = %v, %v", l, err)
	}
	multi := [][]float64{{0.9, 0.1}, {0.2, 0.8}}
	if m, err := Metric(MultiClass, multi, []float64{0, 1}); err != nil || m != 1 {
		t.Errorf("multi metric = %v, %v", m, err)
	}
	reg := [][]float64{{1}, {2}}
	if m, err := Metric(Regression, reg, []float64{1, 2}); err != nil || m != 0 {
		t.Errorf("reg metric = %v, %v", m, err)
	}
	if l, err := Loss(Regression, reg, []float64{1, 2}); err != nil || l != 0 {
		t.Errorf("reg loss = %v, %v", l, err)
	}
	if _, err := Metric(Task(9), nil, nil); err == nil {
		t.Error("unknown task should fail")
	}
	if _, err := Loss(Task(9), nil, nil); err == nil {
		t.Error("unknown task loss should fail")
	}
}

func TestMetricNamesAndOrientation(t *testing.T) {
	if MetricName(Binary) != "AUC" || MetricName(MultiClass) != "F1" || MetricName(Regression) != "RMSE" || MetricName(Task(9)) != "?" {
		t.Error("metric names wrong")
	}
	if !HigherIsBetter(Binary) || HigherIsBetter(Regression) {
		t.Error("orientation wrong")
	}
	if Binary.String() != "binary" || MultiClass.String() != "multiclass" ||
		Regression.String() != "regression" || Task(9).String() != "Task(9)" {
		t.Error("task names wrong")
	}
}

// Property: AUC is invariant under strictly monotone transforms of scores.
func TestPropertyAUCMonotoneInvariant(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw)
		scores := make([]float64, n)
		y := make([]float64, n)
		for i, v := range raw {
			scores[i] = float64(v)
			y[i] = float64(i % 2)
		}
		a := AUC(scores, y)
		tx := make([]float64, n)
		for i, v := range scores {
			tx[i] = math.Atan(v/10) * 3
		}
		return math.Abs(a-AUC(tx, y)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AUC is within [0,1].
func TestPropertyAUCBounded(t *testing.T) {
	f := func(scores []float64, labels []bool) bool {
		n := len(scores)
		if len(labels) < n {
			n = len(labels)
		}
		y := make([]float64, n)
		s := make([]float64, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(scores[i]) {
				s[i] = 0
			} else {
				s[i] = scores[i]
			}
			if labels[i] {
				y[i] = 1
			}
		}
		a := AUC(s, y)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
