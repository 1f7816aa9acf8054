package ml

import (
	"fmt"
	"slices"
)

// GBDTOptions configure the gradient-boosted tree ensemble (the paper's XGB
// model): second-order boosting with regularised leaf weights, the core of
// the XGBoost objective.
type GBDTOptions struct {
	NumRounds      int     // 0 → 40
	MaxDepth       int     // 0 → 4
	LearningRate   float64 // 0 → 0.2
	Lambda         float64 // L2 on leaf weights; 0 → 1.0
	MinChildWeight float64 // minimum hessian sum per leaf; 0 → 1.0
	Seed           int64
}

func (o GBDTOptions) normalized() GBDTOptions {
	if o.NumRounds <= 0 {
		o.NumRounds = 40
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.2
	}
	if o.Lambda <= 0 {
		o.Lambda = 1.0
	}
	if o.MinChildWeight <= 0 {
		o.MinChildWeight = 1.0
	}
	return o
}

// gbNode is a regression tree over gradients/hessians with XGBoost-style
// leaf weights w = -G/(H+λ).
type gbNode struct {
	feature int
	thresh  float64
	left    *gbNode
	right   *gbNode
	weight  float64
	isLeaf  bool
	gain    float64 // split gain, for feature importance
}

// GBDT is the gradient boosted tree model. Binary tasks boost log-loss;
// regression boosts squared error; multiclass trains one booster per class
// one-vs-rest and normalises the sigmoid scores.
type GBDT struct {
	task     Task
	opts     GBDTOptions
	base     []float64  // initial score per class booster
	boosters [][]gbTree // [class][round]
	classes  int
	gains    []float64 // per-feature cumulative split gain
}

type gbTree struct{ root *gbNode }

// NewGBDT constructs the booster for a task.
func NewGBDT(task Task, opts GBDTOptions) *GBDT {
	return &GBDT{task: task, opts: opts.normalized()}
}

// Task returns the configured task.
func (m *GBDT) Task() Task { return m.task }

// Fit trains the ensemble.
func (m *GBDT) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("ml: bad training set (%d rows, %d labels)", len(X), len(y))
	}
	p := len(X[0])
	m.gains = make([]float64, p)
	switch m.task {
	case Binary:
		m.classes = 1
	case Regression:
		m.classes = 1
	case MultiClass:
		m.classes = NumClasses(y)
	default:
		return fmt.Errorf("ml: unknown task %d", int(m.task))
	}
	m.base = make([]float64, m.classes)
	m.boosters = make([][]gbTree, m.classes)
	n := len(X)
	g := newGBGrower(m, columns(X))
	for c := 0; c < m.classes; c++ {
		target := make([]float64, n)
		for i := range target {
			switch m.task {
			case Regression:
				target[i] = y[i]
			case Binary:
				target[i] = y[i]
			case MultiClass:
				if int(y[i]) == c {
					target[i] = 1
				}
			}
		}
		if m.task == Regression {
			s := 0.0
			for _, v := range target {
				s += v
			}
			m.base[c] = s / float64(n)
		} // classification base score 0 (p=0.5)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = m.base[c]
		}
		for round := 0; round < m.opts.NumRounds; round++ {
			for i := 0; i < n; i++ {
				if m.task == Regression {
					g.grad[i] = scores[i] - target[i]
					g.hess[i] = 1
				} else {
					pi := sigmoid(scores[i])
					g.grad[i] = pi - target[i]
					g.hess[i] = pi * (1 - pi)
					if g.hess[i] < 1e-6 {
						g.hess[i] = 1e-6
					}
				}
			}
			for i := range g.rows { // the last tree's partitions reordered them
				g.rows[i] = i
			}
			root := g.grow(g.rows, 0)
			m.boosters[c] = append(m.boosters[c], gbTree{root: root})
			for i := 0; i < n; i++ {
				scores[i] += m.opts.LearningRate * g.leafWeight[i]
			}
		}
	}
	return nil
}

// gbGrower is one Fit's exact greedy split search and its scratch, shared by
// every round and every class booster.
//
// Tie order is part of the model. A split's GL/HL are summed in the order the
// sort leaves the node's rows in, and tied values stay wherever pdqsort puts
// them, so the gains, and with them the chosen splits, depend on pdqsort's
// exact permutation of the node's values taken in ascending row order. The
// grower reproduces it: cmpValue answers the same < questions sort.Slice was
// asked, partitions are stable so a node's rows stay ascending, and sorted
// orders are memoised by row set, which is exact because the permutation
// depends only on the value sequence and the data is fixed for the Fit. The
// root (rows 0..n-1) is thus sorted once, and the child row sets boosting
// revisits round after round are not sorted again. A stable sort, or a child
// order filtered from its parent's sorted order, would break ties differently
// and change the models.
type gbGrower struct {
	m          *GBDT
	cols       [][]float64 // the training matrix, column-major
	grad, hess []float64
	rows       []int
	pairs      []valRow
	part       []int
	leafWeight []float64 // per training row: the weight of the leaf it reached this round
	orders     map[uint64][]*nodeOrders
	budget     int // bytes the memo may still take
}

// orderMemoBytes bounds one Fit's sorted-order memo; once it is spent, new
// row sets are sorted without being kept. The root's orders, the first
// stored, are kept whatever their size.
const orderMemoBytes = 8 << 20

// nodeOrders is one row set's sort result: byFeature[j] lists the rows in the
// order pdqsort leaves feature j's values in, or is nil when the sorted ends
// are equal (a constant feature, or one a NaN hides the spread of), which the
// split scan has always skipped.
type nodeOrders struct {
	rows      []int
	byFeature [][]int32
}

// valRow is one row's feature value, sorted by value.
type valRow struct {
	v float64
	r int32
}

func newGBGrower(m *GBDT, cols [][]float64) *gbGrower {
	n := len(cols[0])
	return &gbGrower{
		m: m, cols: cols,
		grad: make([]float64, n), hess: make([]float64, n),
		rows: make([]int, n), pairs: make([]valRow, n), part: make([]int, 0, n),
		leafWeight: make([]float64, n),
		orders:     map[uint64][]*nodeOrders{},
		budget:     orderMemoBytes,
	}
}

// sortedOrders returns the per-feature sorted orders of rows (ascending),
// from the memo when this row set was sorted before in the Fit.
func (g *gbGrower) sortedOrders(rows []int) *nodeOrders {
	h := uint64(14695981039346656037) // FNV-1a over the row indices
	for _, r := range rows {
		h = (h ^ uint64(r)) * 1099511628211
	}
	for _, o := range g.orders[h] {
		if slices.Equal(o.rows, rows) {
			return o
		}
	}
	p := len(g.cols)
	o := &nodeOrders{rows: slices.Clone(rows), byFeature: make([][]int32, p)}
	pairs := g.pairs[:len(rows)]
	for j, col := range g.cols {
		if constantOn(col, rows) {
			continue
		}
		for k, r := range rows {
			pairs[k] = valRow{col[r], int32(r)}
		}
		slices.SortFunc(pairs, cmpValRow)
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue
		}
		perm := make([]int32, len(pairs))
		for k, e := range pairs {
			perm[k] = e.r
		}
		o.byFeature[j] = perm
	}
	if cost := len(rows) * (8 + 4*p); cost <= g.budget || len(g.orders) == 0 {
		g.budget -= cost
		g.orders[h] = append(g.orders[h], o)
	}
	return o
}

func cmpValRow(a, b valRow) int { return cmpValue(a.v, b.v) }

func (g *gbGrower) grow(rows []int, depth int) *gbNode {
	o := g.m.opts
	var G, H float64
	for _, r := range rows {
		G += g.grad[r]
		H += g.hess[r]
	}
	leaf := func() *gbNode {
		w := -G / (H + o.Lambda)
		for _, r := range rows {
			g.leafWeight[r] = w
		}
		return &gbNode{isLeaf: true, weight: w}
	}
	if depth >= o.MaxDepth || len(rows) < 2 {
		return leaf()
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentScore := G * G / (H + o.Lambda)
	for j, perm := range g.sortedOrders(rows).byFeature {
		col := g.cols[j]
		var GL, HL float64
		for i := 0; i < len(perm)-1; i++ {
			r := perm[i]
			GL += g.grad[r]
			HL += g.hess[r]
			v, next := col[r], col[perm[i+1]]
			if v == next {
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < o.MinChildWeight || HR < o.MinChildWeight {
				continue
			}
			gain := GL*GL/(HL+o.Lambda) + GR*GR/(HR+o.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeat = j
				bestThresh = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return leaf()
	}
	nl := partitionRows(g.cols[bestFeat], rows, g.part, bestThresh)
	if nl == 0 || nl == len(rows) {
		return leaf()
	}
	g.m.gains[bestFeat] += bestGain
	return &gbNode{
		feature: bestFeat,
		thresh:  bestThresh,
		gain:    bestGain,
		left:    g.grow(rows[:nl], depth+1),
		right:   g.grow(rows[nl:], depth+1),
	}
}

func predictGB(node *gbNode, row []float64) float64 {
	for !node.isLeaf {
		if row[node.feature] <= node.thresh {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.weight
}

// Predict returns score rows (see Model).
func (m *GBDT) Predict(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		raw := make([]float64, m.classes)
		for c := 0; c < m.classes; c++ {
			s := m.base[c]
			for _, t := range m.boosters[c] {
				s += m.opts.LearningRate * predictGB(t.root, row)
			}
			raw[c] = s
		}
		switch m.task {
		case Regression:
			out[i] = []float64{raw[0]}
		case Binary:
			out[i] = []float64{sigmoid(raw[0])}
		case MultiClass:
			probs := make([]float64, m.classes)
			sum := 0.0
			for c, s := range raw {
				probs[c] = sigmoid(s)
				sum += probs[c]
			}
			if sum <= 0 {
				sum = 1
			}
			for c := range probs {
				probs[c] /= sum
			}
			out[i] = probs
		}
	}
	return out
}

// FeatureImportance returns the cumulative split gain per feature, the
// signal the FT+GBDT selector ranks by. The slice is a copy.
func (m *GBDT) FeatureImportance() []float64 {
	out := make([]float64, len(m.gains))
	copy(out, m.gains)
	// Normalise to sum 1 when any gain exists, matching xgboost's
	// importance_type="gain" after normalisation.
	total := 0.0
	for _, g := range out {
		total += g
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}
