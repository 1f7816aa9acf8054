// Package ml is the model substrate of the reproduction: logistic / linear
// regression, CART decision trees, random forests, XGBoost-style gradient
// boosted trees and a DeepFM network, together with the metrics (AUC, macro
// F1, RMSE) and the train/valid/test split protocol the paper evaluates with.
// Everything is pure Go and deterministic given a seed.
package ml

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataframe"
)

// Task identifies the learning problem.
type Task int

// Supported tasks.
const (
	Binary Task = iota
	MultiClass
	Regression
)

// String names the task.
func (t Task) String() string {
	switch t {
	case Binary:
		return "binary"
	case MultiClass:
		return "multiclass"
	case Regression:
		return "regression"
	}
	return fmt.Sprintf("Task(%d)", int(t))
}

// Dataset is a dense numeric design matrix with targets. X is row-major.
type Dataset struct {
	X        [][]float64
	Y        []float64
	Features []string
}

// NumRows returns the number of rows.
func (d *Dataset) NumRows() int { return len(d.X) }

// NumFeatures returns the number of feature columns.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return len(d.Features)
	}
	return len(d.X[0])
}

// FromTable materialises a numeric dataset from a dataframe table: the named
// feature columns are coerced to float (strings become ordinal codes) and
// NULLs are imputed with the column mean (0 when a column is entirely NULL).
// The label column must be numeric and non-null everywhere. It is the table
// front end of FromColumns, so both assembly paths share one imputation rule.
func FromTable(t *dataframe.Table, features []string, label string) (*Dataset, error) {
	lcol := t.Column(label)
	if lcol == nil {
		return nil, fmt.Errorf("ml: no label column %q", label)
	}
	cols := make([][]float64, len(features))
	valids := make([][]bool, len(features))
	for j, name := range features {
		col := t.Column(name)
		if col == nil {
			return nil, fmt.Errorf("ml: no feature column %q", name)
		}
		cols[j], valids[j] = col.Floats()
	}
	return FromColumns(features, cols, valids, lcol)
}

// FromColumns materialises a dataset straight from feature vectors — the
// columnar fast path FromTable reduces to once a table exists. cols[j] and
// valids[j] are feature j's values and validity (a nil valids[j] means all
// present); NULLs are imputed with the column mean exactly as FromTable
// imputes them. The label column must be numeric and non-null everywhere.
// Query-engine batch outputs (query.FeatureMatrix column views) feed this
// directly, skipping the intermediate table clone and per-column copies.
func FromColumns(features []string, cols [][]float64, valids [][]bool, label *dataframe.Column) (*Dataset, error) {
	if len(cols) != len(features) || len(valids) != len(features) {
		return nil, fmt.Errorf("ml: %d feature names, %d value columns, %d validity columns", len(features), len(cols), len(valids))
	}
	if label == nil {
		return nil, fmt.Errorf("ml: no label column")
	}
	n := label.Len()
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v, ok := label.AsFloat(i)
		if !ok {
			return nil, fmt.Errorf("ml: NULL label at row %d", i)
		}
		y[i] = v
	}
	x := make([][]float64, n)
	flat := make([]float64, n*len(features))
	for i := range x {
		x[i] = flat[i*len(features) : (i+1)*len(features) : (i+1)*len(features)]
	}
	for j := range features {
		vals, valid := cols[j], valids[j]
		if len(vals) != n || (valid != nil && len(valid) != n) {
			return nil, fmt.Errorf("ml: feature %q has %d rows, label has %d", features[j], len(vals), n)
		}
		mean, cnt := 0.0, 0
		for i, v := range vals {
			if valid == nil || valid[i] {
				mean += v
				cnt++
			}
		}
		if cnt > 0 {
			mean /= float64(cnt)
		}
		for i, v := range vals {
			if valid == nil || valid[i] {
				x[i][j] = v
			} else {
				x[i][j] = mean
			}
		}
	}
	return &Dataset{X: x, Y: y, Features: append([]string(nil), features...)}, nil
}

// Split is the paper's 0.6/0.2/0.2 train/valid/test protocol with a seeded
// shuffle.
type Split struct {
	Train, Valid, Test *Dataset
}

// SplitDataset shuffles rows with the given seed and splits by the ratios
// (which must sum to ~1).
func SplitDataset(d *Dataset, trainFrac, validFrac float64, seed int64) (*Split, error) {
	rows, err := NewSplitRows(d.NumRows(), trainFrac, validFrac, seed)
	if err != nil {
		return nil, err
	}
	return rows.Apply(d), nil
}

// SplitRows is the row assignment of SplitDataset's seeded shuffle. It
// depends only on the row count, the ratios and the seed, so one assignment
// splits every dataset of that many rows the way SplitDataset would.
type SplitRows struct {
	train, valid, test []int
}

// NewSplitRows shuffles n row indices with the given seed and cuts them by
// the ratios, failing as SplitDataset does.
func NewSplitRows(n int, trainFrac, validFrac float64, seed int64) (SplitRows, error) {
	if trainFrac <= 0 || validFrac < 0 || trainFrac+validFrac >= 1 {
		return SplitRows{}, fmt.Errorf("ml: bad split fractions %v/%v", trainFrac, validFrac)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := int(math.Round(trainFrac * float64(n)))
	nValid := int(math.Round(validFrac * float64(n)))
	if nTrain < 1 || nValid < 1 || nTrain+nValid >= n {
		return SplitRows{}, fmt.Errorf("ml: dataset too small to split (%d rows)", n)
	}
	return SplitRows{train: idx[:nTrain], valid: idx[nTrain : nTrain+nValid], test: idx[nTrain+nValid:]}, nil
}

// Apply splits d, which must have the row count s was made for. The parts
// share d's rows.
func (s SplitRows) Apply(d *Dataset) *Split {
	take := func(rows []int) *Dataset {
		out := &Dataset{X: make([][]float64, len(rows)), Y: make([]float64, len(rows)), Features: d.Features}
		for i, r := range rows {
			out.X[i], out.Y[i] = d.X[r], d.Y[r]
		}
		return out
	}
	return &Split{Train: take(s.train), Valid: take(s.valid), Test: take(s.test)}
}

// NumClasses infers the number of classes from labels assumed to be
// 0..k-1.
func NumClasses(y []float64) int {
	maxc := 0
	for _, v := range y {
		if int(v) > maxc {
			maxc = int(v)
		}
	}
	return maxc + 1
}

// standardizer centres and scales features; models that are scale-sensitive
// (linear, DeepFM) fit one on training data.
type standardizer struct {
	mean, std []float64
}

func fitStandardizer(X [][]float64) *standardizer {
	if len(X) == 0 {
		return &standardizer{}
	}
	p := len(X[0])
	s := &standardizer{mean: make([]float64, p), std: make([]float64, p)}
	for j := 0; j < p; j++ {
		m := 0.0
		for i := range X {
			m += X[i][j]
		}
		m /= float64(len(X))
		v := 0.0
		for i := range X {
			d := X[i][j] - m
			v += d * d
		}
		v /= float64(len(X))
		s.mean[j] = m
		s.std[j] = math.Sqrt(v)
		if s.std[j] < 1e-12 {
			s.std[j] = 1
		}
	}
	return s
}

func (s *standardizer) transform(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = (v - s.mean[j]) / s.std[j]
		}
		out[i] = r
	}
	return out
}

// Model is the common interface over all learners. Predict returns one
// score row per input row: Regression → [value], Binary → [P(y=1)],
// MultiClass → class probabilities.
type Model interface {
	Fit(X [][]float64, y []float64) error
	Predict(X [][]float64) [][]float64
	Task() Task
}

// Kind identifies a model family, mirroring the paper's four downstream
// models.
type Kind int

// Model kinds.
const (
	KindLR Kind = iota
	KindXGB
	KindRF
	KindDeepFM
)

// String names the kind as the paper abbreviates it.
func (k Kind) String() string {
	switch k {
	case KindLR:
		return "LR"
	case KindXGB:
		return "XGB"
	case KindRF:
		return "RF"
	case KindDeepFM:
		return "DeepFM"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds lists the four downstream model families of the paper's Table III.
func AllKinds() []Kind { return []Kind{KindLR, KindXGB, KindRF, KindDeepFM} }

// TraditionalKinds lists the three traditional models used in Table VI (the
// single-table datasets are multiclass, which DeepFM does not support).
func TraditionalKinds() []Kind { return []Kind{KindLR, KindXGB, KindRF} }

// New constructs a model of the given kind for the task with laptop-scale
// default hyper-parameters. DeepFM supports only binary classification,
// matching the paper ("DeepFM only works for binary classification tasks").
func New(kind Kind, task Task, seed int64) (Model, error) {
	switch kind {
	case KindLR:
		return NewLinear(task, LinearOptions{Seed: seed}), nil
	case KindRF:
		return NewRandomForest(task, ForestOptions{Seed: seed}), nil
	case KindXGB:
		return NewGBDT(task, GBDTOptions{Seed: seed}), nil
	case KindDeepFM:
		if task != Binary {
			return nil, fmt.Errorf("ml: DeepFM supports only binary classification, got %s", task)
		}
		return NewDeepFM(DeepFMOptions{Seed: seed}), nil
	}
	return nil, fmt.Errorf("ml: unknown model kind %d", int(kind))
}
