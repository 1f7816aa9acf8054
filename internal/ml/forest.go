package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// ForestOptions configure the random forest.
type ForestOptions struct {
	NumTrees       int // 0 → 30
	MaxDepth       int // 0 → 8
	MinSamplesLeaf int // 0 → 2
	Seed           int64
}

func (o ForestOptions) normalized() ForestOptions {
	if o.NumTrees <= 0 {
		o.NumTrees = 30
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MinSamplesLeaf <= 0 {
		o.MinSamplesLeaf = 2
	}
	return o
}

// RandomForest is a bagged CART ensemble with sqrt-feature subsampling,
// the paper's RF downstream model.
type RandomForest struct {
	task    Task
	opts    ForestOptions
	trees   []*treeNode
	classes int
}

// NewRandomForest constructs the forest for a task.
func NewRandomForest(task Task, opts ForestOptions) *RandomForest {
	return &RandomForest{task: task, opts: opts.normalized()}
}

// Task returns the configured task.
func (m *RandomForest) Task() Task { return m.task }

// Fit grows NumTrees trees on bootstrap samples.
func (m *RandomForest) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("ml: bad training set (%d rows, %d labels)", len(X), len(y))
	}
	rng := rand.New(rand.NewSource(m.opts.Seed))
	p := len(X[0])
	maxFeatures := int(math.Sqrt(float64(p)))
	if maxFeatures < 1 {
		maxFeatures = 1
	}
	switch m.task {
	case Binary:
		m.classes = 2
	case MultiClass:
		m.classes = NumClasses(y)
	case Regression:
		m.classes = 0
	default:
		return fmt.Errorf("ml: unknown task %d", int(m.task))
	}
	m.trees = m.trees[:0]
	n := len(X)
	cols := columns(X)
	for t := 0; t < m.opts.NumTrees; t++ {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = rng.Intn(n)
		}
		o := treeOptions{
			maxDepth:       m.opts.MaxDepth,
			minSamplesLeaf: m.opts.MinSamplesLeaf,
			maxFeatures:    maxFeatures,
			classes:        m.classes,
			regression:     m.task == Regression,
			intn:           rng.Intn,
		}
		m.trees = append(m.trees, buildTree(cols, y, rows, 0, o))
	}
	return nil
}

// Predict averages tree outputs: class distributions for classification,
// means for regression.
func (m *RandomForest) Predict(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		if m.task == Regression {
			s := 0.0
			for _, t := range m.trees {
				s += t.predictRow(row).leafVal
			}
			out[i] = []float64{s / float64(len(m.trees))}
			continue
		}
		dist := make([]float64, m.classes)
		for _, t := range m.trees {
			leaf := t.predictRow(row)
			for c, v := range leaf.leafDist {
				dist[c] += v
			}
		}
		for c := range dist {
			dist[c] /= float64(len(m.trees))
		}
		if m.task == Binary {
			out[i] = []float64{dist[1]}
		} else {
			out[i] = dist
		}
	}
	return out
}
