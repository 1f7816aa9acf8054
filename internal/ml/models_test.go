package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataframe"
)

// synthBinary builds a linearly separable-ish binary problem.
func synthBinary(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := rng.NormFloat64()
		x1 := rng.NormFloat64()
		noise := rng.NormFloat64() * 0.3
		X[i] = []float64{x0, x1, rng.NormFloat64()}
		if x0+2*x1+noise > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// synthXOR builds a nonlinear (XOR-style) binary problem that linear models
// cannot solve but trees and DeepFM can.
func synthXOR(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := rng.Float64()*2 - 1
		x1 := rng.Float64()*2 - 1
		X[i] = []float64{x0, x1}
		if x0*x1 > 0 {
			y[i] = 1
		}
	}
	return X, y
}

func synthMulti(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		c := rng.Intn(3)
		X[i] = []float64{float64(c)*3 + rng.NormFloat64()*0.5, rng.NormFloat64()}
		y[i] = float64(c)
	}
	return X, y
}

func synthRegression(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := rng.NormFloat64()
		x1 := rng.NormFloat64()
		X[i] = []float64{x0, x1}
		y[i] = 3*x0 - 2*x1 + rng.NormFloat64()*0.1
	}
	return X, y
}

func aucOf(t *testing.T, m Model, X [][]float64, y []float64) float64 {
	t.Helper()
	preds := m.Predict(X)
	metric, err := Metric(Binary, preds, y)
	if err != nil {
		t.Fatal(err)
	}
	return metric
}

func TestLinearBinary(t *testing.T) {
	X, y := synthBinary(400, 1)
	m := NewLinear(Binary, LinearOptions{Seed: 1})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, m, X, y); auc < 0.9 {
		t.Fatalf("LR train AUC = %v, want > 0.9", auc)
	}
	if m.Task() != Binary {
		t.Fatal("task mismatch")
	}
	coef := m.Coefficients()
	if len(coef) != 3 {
		t.Fatalf("coef len = %d", len(coef))
	}
	// x1 has weight 2, x0 weight 1, x2 is noise: |w1| should dominate |w2|.
	if coef[1] <= coef[2] {
		t.Fatalf("informative coef %v should beat noise coef %v", coef[1], coef[2])
	}
}

func TestLinearMulticlass(t *testing.T) {
	X, y := synthMulti(300, 2)
	m := NewLinear(MultiClass, LinearOptions{Seed: 2})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	preds := m.Predict(X)
	if len(preds[0]) != 3 {
		t.Fatalf("class count = %d", len(preds[0]))
	}
	f1, _ := Metric(MultiClass, preds, y)
	if f1 < 0.9 {
		t.Fatalf("softmax F1 = %v", f1)
	}
	// probabilities sum to 1
	s := preds[0][0] + preds[0][1] + preds[0][2]
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("probs sum = %v", s)
	}
}

func TestLinearRegression(t *testing.T) {
	X, y := synthRegression(300, 3)
	m := NewLinear(Regression, LinearOptions{Seed: 3, Epochs: 500})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	preds := m.Predict(X)
	rmse, _ := Metric(Regression, preds, y)
	if rmse > 0.5 {
		t.Fatalf("linear regression RMSE = %v", rmse)
	}
}

func TestLinearFitValidation(t *testing.T) {
	m := NewLinear(Binary, LinearOptions{})
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty training set should fail")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	bad := NewLinear(Task(9), LinearOptions{})
	if err := bad.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("unknown task should fail")
	}
	// Rows without features fit the constant model, as the forest does.
	none := NewGBDT(Binary, GBDTOptions{})
	if err := none.Fit([][]float64{{}, {}, {}}, []float64{0, 1, 1}); err != nil {
		t.Fatalf("no features: %v", err)
	}
	if p := none.Predict([][]float64{{}, {}}); p[0][0] != p[1][0] || p[0][0] <= 0.5 {
		t.Errorf("no features: predictions %v, want one constant above 0.5", p)
	}
}

func TestForestSolvesXOR(t *testing.T) {
	X, y := synthXOR(400, 4)
	m := NewRandomForest(Binary, ForestOptions{Seed: 4})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, m, X, y); auc < 0.95 {
		t.Fatalf("RF XOR AUC = %v", auc)
	}
	// linear model cannot solve XOR — sanity-check the problem is nonlinear
	lr := NewLinear(Binary, LinearOptions{Seed: 4})
	if err := lr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, lr, X, y); auc > 0.7 {
		t.Fatalf("LR XOR AUC = %v, problem is not nonlinear enough", auc)
	}
}

func TestForestMulticlassAndRegression(t *testing.T) {
	X, y := synthMulti(300, 5)
	m := NewRandomForest(MultiClass, ForestOptions{Seed: 5})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	preds := m.Predict(X)
	if f1, _ := Metric(MultiClass, preds, y); f1 < 0.9 {
		t.Fatalf("RF F1 = %v", f1)
	}
	Xr, yr := synthRegression(300, 5)
	r := NewRandomForest(Regression, ForestOptions{Seed: 5})
	if err := r.Fit(Xr, yr); err != nil {
		t.Fatal(err)
	}
	if rmse, _ := Metric(Regression, r.Predict(Xr), yr); rmse > 1.5 {
		t.Fatalf("RF regression RMSE = %v", rmse)
	}
	if r.Task() != Regression {
		t.Fatal("task mismatch")
	}
}

func TestForestValidation(t *testing.T) {
	m := NewRandomForest(Binary, ForestOptions{})
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty should fail")
	}
	bad := NewRandomForest(Task(9), ForestOptions{})
	if err := bad.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("unknown task should fail")
	}
	// Rows without features fit the constant model, as the forest does.
	none := NewGBDT(Binary, GBDTOptions{})
	if err := none.Fit([][]float64{{}, {}, {}}, []float64{0, 1, 1}); err != nil {
		t.Fatalf("no features: %v", err)
	}
	if p := none.Predict([][]float64{{}, {}}); p[0][0] != p[1][0] || p[0][0] <= 0.5 {
		t.Errorf("no features: predictions %v, want one constant above 0.5", p)
	}
}

func TestGBDTBinaryAndXOR(t *testing.T) {
	X, y := synthBinary(400, 6)
	m := NewGBDT(Binary, GBDTOptions{Seed: 6})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, m, X, y); auc < 0.95 {
		t.Fatalf("GBDT AUC = %v", auc)
	}
	Xx, yx := synthXOR(400, 6)
	x := NewGBDT(Binary, GBDTOptions{Seed: 6})
	if err := x.Fit(Xx, yx); err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, x, Xx, yx); auc < 0.9 {
		t.Fatalf("GBDT XOR AUC = %v", auc)
	}
}

func TestGBDTRegressionAndMulticlass(t *testing.T) {
	X, y := synthRegression(300, 7)
	m := NewGBDT(Regression, GBDTOptions{Seed: 7})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if rmse, _ := Metric(Regression, m.Predict(X), y); rmse > 1.0 {
		t.Fatalf("GBDT regression RMSE = %v", rmse)
	}
	Xm, ym := synthMulti(300, 7)
	mc := NewGBDT(MultiClass, GBDTOptions{Seed: 7})
	if err := mc.Fit(Xm, ym); err != nil {
		t.Fatal(err)
	}
	preds := mc.Predict(Xm)
	if len(preds[0]) != 3 {
		t.Fatalf("GBDT multiclass output width = %d", len(preds[0]))
	}
	if f1, _ := Metric(MultiClass, preds, ym); f1 < 0.9 {
		t.Fatalf("GBDT F1 = %v", f1)
	}
	if mc.Task() != MultiClass {
		t.Fatal("task mismatch")
	}
}

func TestGBDTFeatureImportance(t *testing.T) {
	X, y := synthBinary(400, 8)
	m := NewGBDT(Binary, GBDTOptions{Seed: 8})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance len = %d", len(imp))
	}
	// x1 (weight 2) should be the most important; x2 is pure noise.
	if imp[1] <= imp[2] {
		t.Fatalf("importance %v: informative feature should beat noise", imp)
	}
	total := imp[0] + imp[1] + imp[2]
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importance should normalise to 1, got %v", total)
	}
}

func TestGBDTValidation(t *testing.T) {
	m := NewGBDT(Binary, GBDTOptions{})
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty should fail")
	}
	bad := NewGBDT(Task(9), GBDTOptions{})
	if err := bad.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("unknown task should fail")
	}
	// Rows without features fit the constant model, as the forest does.
	none := NewGBDT(Binary, GBDTOptions{})
	if err := none.Fit([][]float64{{}, {}, {}}, []float64{0, 1, 1}); err != nil {
		t.Fatalf("no features: %v", err)
	}
	if p := none.Predict([][]float64{{}, {}}); p[0][0] != p[1][0] || p[0][0] <= 0.5 {
		t.Errorf("no features: predictions %v, want one constant above 0.5", p)
	}
}

func TestDeepFMLearnsNonlinear(t *testing.T) {
	X, y := synthXOR(400, 9)
	m := NewDeepFM(DeepFMOptions{Seed: 9, Epochs: 60})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, m, X, y); auc < 0.85 {
		t.Fatalf("DeepFM XOR AUC = %v", auc)
	}
	if m.Task() != Binary {
		t.Fatal("task mismatch")
	}
}

func TestDeepFMLinearProblem(t *testing.T) {
	X, y := synthBinary(300, 10)
	m := NewDeepFM(DeepFMOptions{Seed: 10})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if auc := aucOf(t, m, X, y); auc < 0.85 {
		t.Fatalf("DeepFM linear AUC = %v", auc)
	}
}

func TestDeepFMValidation(t *testing.T) {
	m := NewDeepFM(DeepFMOptions{})
	if err := m.Fit(nil, nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestNewDispatch(t *testing.T) {
	for _, k := range AllKinds() {
		task := Binary
		m, err := New(k, task, 1)
		if err != nil || m == nil {
			t.Fatalf("New(%s) failed: %v", k, err)
		}
	}
	if _, err := New(KindDeepFM, MultiClass, 1); err == nil {
		t.Error("DeepFM multiclass should fail")
	}
	if _, err := New(Kind(9), Binary, 1); err == nil {
		t.Error("unknown kind should fail")
	}
	if KindLR.String() != "LR" || KindXGB.String() != "XGB" || KindRF.String() != "RF" ||
		KindDeepFM.String() != "DeepFM" || Kind(9).String() != "Kind(9)" {
		t.Error("kind names wrong")
	}
	if len(TraditionalKinds()) != 3 {
		t.Error("TraditionalKinds should have 3 entries")
	}
}

func TestFromTableImputesNulls(t *testing.T) {
	tbl := dataframe.MustNewTable(
		dataframe.NewFloatColumn("f", []float64{1, 3, 0}, []bool{true, true, false}),
		dataframe.NewStringColumn("s", []string{"b", "a", "b"}, nil),
		dataframe.NewIntColumn("label", []int64{0, 1, 0}, nil),
	)
	ds, err := FromTable(tbl, []string{"f", "s"}, "label")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 3 || ds.NumFeatures() != 2 {
		t.Fatalf("shape %dx%d", ds.NumRows(), ds.NumFeatures())
	}
	if ds.X[2][0] != 2 { // mean of 1 and 3
		t.Fatalf("imputed value = %v, want mean 2", ds.X[2][0])
	}
	if ds.X[0][1] != 1 || ds.X[1][1] != 0 { // ordinal codes a=0, b=1
		t.Fatalf("ordinal codes = %v %v", ds.X[0][1], ds.X[1][1])
	}
}

func TestFromTableErrors(t *testing.T) {
	tbl := dataframe.MustNewTable(
		dataframe.NewFloatColumn("f", []float64{1}, nil),
		dataframe.NewIntColumn("label", []int64{0}, []bool{false}),
	)
	if _, err := FromTable(tbl, []string{"f"}, "ghost"); err == nil {
		t.Error("missing label should fail")
	}
	if _, err := FromTable(tbl, []string{"ghost"}, "label"); err == nil {
		t.Error("missing feature should fail")
	}
	if _, err := FromTable(tbl, []string{"f"}, "label"); err == nil {
		t.Error("NULL label should fail")
	}
}

func TestFromTableAllNullFeatureImputesZero(t *testing.T) {
	tbl := dataframe.MustNewTable(
		dataframe.NewFloatColumn("f", []float64{0, 0}, []bool{false, false}),
		dataframe.NewIntColumn("label", []int64{0, 1}, nil),
	)
	ds, err := FromTable(tbl, []string{"f"}, "label")
	if err != nil {
		t.Fatal(err)
	}
	if ds.X[0][0] != 0 || ds.X[1][0] != 0 {
		t.Fatal("all-NULL feature should impute 0")
	}
}

func TestSplitDataset(t *testing.T) {
	n := 100
	d := &Dataset{}
	for i := 0; i < n; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, float64(i%2))
	}
	sp, err := SplitDataset(d, 0.6, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.NumRows() != 60 || sp.Valid.NumRows() != 20 || sp.Test.NumRows() != 20 {
		t.Fatalf("split sizes %d/%d/%d", sp.Train.NumRows(), sp.Valid.NumRows(), sp.Test.NumRows())
	}
	// Disjoint and covering: collect all x values.
	seen := map[float64]int{}
	for _, part := range []*Dataset{sp.Train, sp.Valid, sp.Test} {
		for _, row := range part.X {
			seen[row[0]]++
		}
	}
	if len(seen) != n {
		t.Fatalf("split lost rows: %d distinct", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("row %v appears %d times", v, c)
		}
	}
	// Determinism
	sp2, _ := SplitDataset(d, 0.6, 0.2, 42)
	if sp2.Train.X[0][0] != sp.Train.X[0][0] {
		t.Fatal("split not deterministic")
	}
}

func TestSplitDatasetValidation(t *testing.T) {
	d := &Dataset{X: [][]float64{{1}, {2}}, Y: []float64{0, 1}}
	if _, err := SplitDataset(d, 0, 0.2, 1); err == nil {
		t.Error("zero train frac should fail")
	}
	if _, err := SplitDataset(d, 0.9, 0.2, 1); err == nil {
		t.Error("fracs > 1 should fail")
	}
	if _, err := SplitDataset(d, 0.6, 0.2, 1); err == nil {
		t.Error("too-small dataset should fail")
	}
}

func TestNumClasses(t *testing.T) {
	if NumClasses([]float64{0, 2, 1}) != 3 {
		t.Fatal("NumClasses wrong")
	}
	if NumClasses(nil) != 1 {
		t.Fatal("empty NumClasses should be 1")
	}
}

func TestModelsDeterministicWithSeed(t *testing.T) {
	X, y := synthBinary(150, 11)
	for _, k := range []Kind{KindLR, KindRF, KindXGB, KindDeepFM} {
		a, _ := New(k, Binary, 7)
		b, _ := New(k, Binary, 7)
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		pa := a.Predict(X[:5])
		pb := b.Predict(X[:5])
		for i := range pa {
			if pa[i][0] != pb[i][0] {
				t.Fatalf("%s not deterministic: %v vs %v", k, pa[i][0], pb[i][0])
			}
		}
	}
}

func TestTreeDepthRespectsLimit(t *testing.T) {
	X, y := synthXOR(300, 12)
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	root := buildTree(columns(X), y, rows, 0, treeOptions{maxDepth: 3, minSamplesLeaf: 1, classes: 2})
	if d := root.depth(); d > 4 { // depth limit 3 splits → ≤4 levels
		t.Fatalf("tree depth = %d", d)
	}
	empty := buildTree(columns(X), y, nil, 0, treeOptions{maxDepth: 3, minSamplesLeaf: 1, classes: 2})
	if !empty.isLeaf {
		t.Fatal("empty rows should produce a leaf")
	}
}
