package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: binary classifiers emit probabilities in [0, 1] on arbitrary
// inputs, including inputs far outside the training distribution.
func TestPropertyBinaryProbabilitiesBounded(t *testing.T) {
	X, y := synthBinary(150, 20)
	models := []Model{}
	for _, k := range AllKinds() {
		m, err := New(k, Binary, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	f := func(a, b, c float64) bool {
		row := []float64{clampProp(a), clampProp(b), clampProp(c)}
		for _, m := range models {
			p := m.Predict([][]float64{row})[0][0]
			if math.IsNaN(p) || p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func clampProp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v > 1e6 {
		return 1e6
	}
	if v < -1e6 {
		return -1e6
	}
	return v
}

// Property: multiclass probability rows sum to 1 for LR, RF and GBDT.
func TestPropertyMulticlassRowsNormalised(t *testing.T) {
	X, y := synthMulti(200, 21)
	for _, k := range TraditionalKinds() {
		m, err := New(k, MultiClass, 21)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		preds := m.Predict(X[:20])
		for _, row := range preds {
			s := 0.0
			for _, p := range row {
				if p < -1e-9 {
					t.Fatalf("%s: negative probability %v", k, p)
				}
				s += p
			}
			if math.Abs(s-1) > 1e-6 {
				t.Fatalf("%s: probabilities sum to %v", k, s)
			}
		}
	}
}

// Property: GBDT training loss is non-increasing in the number of rounds
// (more boosting rounds never hurt the training fit).
func TestPropertyGBDTMoreRoundsFitBetter(t *testing.T) {
	X, y := synthBinary(250, 22)
	var prev float64 = math.Inf(1)
	for _, rounds := range []int{5, 20, 60} {
		m := NewGBDT(Binary, GBDTOptions{Seed: 22, NumRounds: rounds})
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		// Mean negative log-likelihood of the training labels.
		ll := 0.0
		for i, row := range m.Predict(X) {
			p := math.Min(math.Max(row[0], 1e-12), 1-1e-12)
			if y[i] >= 0.5 {
				ll -= math.Log(p)
			} else {
				ll -= math.Log(1 - p)
			}
		}
		ll /= float64(len(X))
		if ll > prev+1e-9 {
			t.Fatalf("training log-loss rose from %v to %v at %d rounds", prev, ll, rounds)
		}
		prev = ll
	}
}

// Property: the train/valid/test split is invariant to the data values —
// it depends only on (n, fractions, seed).
func TestPropertySplitIndicesStable(t *testing.T) {
	f := func(seed int64) bool {
		n := 50
		d1 := &Dataset{}
		d2 := &Dataset{}
		for i := 0; i < n; i++ {
			d1.X = append(d1.X, []float64{float64(i)})
			d1.Y = append(d1.Y, float64(i%2))
			d2.X = append(d2.X, []float64{float64(i) * 7})
			d2.Y = append(d2.Y, float64(i%2))
		}
		s1, err := SplitDataset(d1, 0.6, 0.2, seed)
		if err != nil {
			return false
		}
		s2, err := SplitDataset(d2, 0.6, 0.2, seed)
		if err != nil {
			return false
		}
		for i := range s1.Train.X {
			if s1.Train.X[i][0]*7 != s2.Train.X[i][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: standardizer output has ~zero mean and ~unit variance per
// feature on the training data.
func TestPropertyStandardizer(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	X := make([][]float64, 200)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()*5 + 100, rng.ExpFloat64()}
	}
	s := fitStandardizer(X)
	Xs := s.transform(X)
	for j := 0; j < 2; j++ {
		mean, va := 0.0, 0.0
		for i := range Xs {
			mean += Xs[i][j]
		}
		mean /= float64(len(Xs))
		for i := range Xs {
			d := Xs[i][j] - mean
			va += d * d
		}
		va /= float64(len(Xs))
		if math.Abs(mean) > 1e-9 || math.Abs(va-1) > 1e-9 {
			t.Fatalf("feature %d: mean %v var %v", j, mean, va)
		}
	}
}

// Property: constant features standardize to zero without division blow-up.
func TestPropertyStandardizerConstantColumn(t *testing.T) {
	X := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := fitStandardizer(X)
	Xs := s.transform(X)
	for i := range Xs {
		if Xs[i][0] != 0 {
			t.Fatalf("constant column should map to 0, got %v", Xs[i][0])
		}
		if math.IsNaN(Xs[i][1]) || math.IsInf(Xs[i][1], 0) {
			t.Fatal("varying column blew up")
		}
	}
}
