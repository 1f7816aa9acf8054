package ml

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
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

// gbNode is one node of a regression tree over gradients/hessians with
// XGBoost-style leaf weights w = -G/(H+λ). A model's nodes live in one slice
// and a split names its children by index in it, the right child right after
// the left, so its trees hold no pointers for the GC to scan. Indices are
// unsigned so a walk step needs no sign extension.
type gbNode struct {
	value   float64 // the split threshold, or the leaf weight
	feature int32   // the split feature, or -1 on a leaf
	left    uint32  // the left child's index in the model's nodes
}

// GBDT is the gradient boosted tree model. Binary tasks boost log-loss;
// regression boosts squared error; multiclass trains one booster per class
// one-vs-rest and normalises the sigmoid scores.
type GBDT struct {
	task    Task
	opts    GBDTOptions
	base    []float64  // initial score per class booster
	nodes   []gbNode   // every tree's nodes
	roots   [][]uint32 // [class][round]: each tree's root in nodes
	classes int
	gains   []float64 // per-feature cumulative split gain
}

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
	m.roots = make([][]uint32, m.classes)
	n := len(X)
	g := getGBGrower(m, columns(X), n)
	defer g.release()
	target, scores := g.target, g.scores
	for c := 0; c < m.classes; c++ {
		for i := range target {
			switch m.task {
			case Regression:
				target[i] = y[i]
			case Binary:
				target[i] = y[i]
			case MultiClass:
				target[i] = 0
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
		for i := range scores {
			scores[i] = m.base[c]
		}
		m.roots[c] = make([]uint32, 0, m.opts.NumRounds)
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
			// The last tree's partitions reordered both.
			for i := range g.rows {
				g.rows[i] = int32(i)
			}
			copy(g.orders, g.sorted)
			root := uint32(len(g.nodes))
			g.nodes = append(g.nodes, gbNode{})
			g.grow(root, 0, n, 0)
			m.roots[c] = append(m.roots[c], root)
			for i := 0; i < n; i++ {
				scores[i] += m.opts.LearningRate * g.leafWeight[i]
			}
		}
	}
	m.nodes = slices.Clone(g.nodes)
	return nil
}

// gbGrower is one Fit's exact greedy split search and its scratch, shared by
// every round and every class booster.
//
// Each feature's rows are sorted once per Fit, by (value, row) under
// cmp.Compare (so NaNs first), into sorted; see sortValRows. A tree starts
// from a copy of those root orders, and a node owns the same position range
// [lo, hi) in rows and in every feature's order. A split partitions each of
// those segments in place and stably, so every child's segment is its
// parent's order filtered: still sorted by (value, row), with nothing sorted
// again. Tie order is part of the model, because a split's GL/HL are summed
// in the scanned order; it is fixed by the rows' ids, not by a sort
// algorithm, so no library sort or toolchain can move the models. A node's
// own G and H, and the leaf weights, are summed over rows, which stays in
// ascending row order: the one canonical order, present even when the model
// has no features.
//
// Growers are pooled: Fit takes one from growerPool and puts it back when it
// returns, so the scratch slices are reused across fits. A model keeps
// nothing of the grower's: the trees grow into the grower's node scratch, and
// the model takes a copy of exactly the nodes it grew.
type gbGrower struct {
	m              *GBDT
	cols           [][]float64 // the training matrix, column-major
	grad, hess     []float64
	target, scores []float64 // the class booster's labels and running scores
	sorted         []int32   // feature j's root order at [j*n, (j+1)*n)
	orders         []int32   // this tree's orders, laid out as sorted
	rows           []int32   // this tree's rows, ascending within each node
	part           []int32
	pairs          []valRow
	leafWeight     []float64 // per training row: the weight of the leaf it reached this round
	nodes          []gbNode  // every tree grown in this fit
}

// valRow is one row's feature value, sorted by value.
type valRow struct {
	v float64
	r int32
}

// cmpValRow orders valRows by value under cmp.Compare (NaN below every
// number), then by row, a total order on distinct rows.
func cmpValRow(a, b valRow) int {
	if c := cmp.Compare(a.v, b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.r, b.r)
}

// sortValRows sorts x by cmpValRow. Every row appears once in a GBDT order,
// and a bootstrap's repeated rows are equal pairs, so the result is the one
// permutation any correct sort leaves: on ascending row ids, exactly what a
// stable sort by value leaves.
func sortValRows(x []valRow) { slices.SortFunc(x, cmpValRow) }

var growerPool = sync.Pool{New: func() any { return new(gbGrower) }}

// getGBGrower takes a grower from the pool and readies it for a fit of m on
// the n rows of cols, sorting each feature's root order.
func getGBGrower(m *GBDT, cols [][]float64, n int) *gbGrower {
	g := growerPool.Get().(*gbGrower)
	g.m, g.cols = m, cols
	g.grad, g.hess = resized(g.grad, n), resized(g.hess, n)
	g.target, g.scores = resized(g.target, n), resized(g.scores, n)
	g.sorted, g.orders = resized(g.sorted, n*len(cols)), resized(g.orders, n*len(cols))
	g.rows, g.part = resized(g.rows, n), resized(g.part, n)
	g.pairs = resized(g.pairs, n)
	g.leafWeight = resized(g.leafWeight, n)
	g.nodes = g.nodes[:0]
	for j, col := range cols {
		for r, v := range col {
			g.pairs[r] = valRow{v, int32(r)}
		}
		sortValRows(g.pairs)
		for k, pr := range g.pairs {
			g.sorted[j*n+k] = pr.r
		}
	}
	return g
}

// release returns g to the pool, dropping what it shares with the model.
func (g *gbGrower) release() {
	g.m, g.cols = nil, nil
	growerPool.Put(g)
}

// resized returns s with length n, reallocated only if its capacity is short.
func resized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// grow grows the tree over the node at positions [lo, hi) into g.nodes[at],
// which the caller has appended.
func (g *gbGrower) grow(at uint32, lo, hi, depth int) {
	o := g.m.opts
	rows := g.rows[lo:hi]
	var G, H float64
	for _, r := range rows {
		G += g.grad[r]
		H += g.hess[r]
	}
	leaf := func() {
		w := -G / (H + o.Lambda)
		for _, r := range rows {
			g.leafWeight[r] = w
		}
		g.nodes[at] = gbNode{value: w, feature: -1}
	}
	if depth >= o.MaxDepth || len(rows) < 2 {
		leaf()
		return
	}
	bestFeat, bestThresh, bestGain := g.bestSplit(lo, hi, G, H)
	if bestFeat < 0 || bestGain <= 1e-12 {
		leaf()
		return
	}
	col := g.cols[bestFeat]
	nl := partitionRows(col, rows, g.part, bestThresh)
	if nl == 0 || nl == len(rows) {
		leaf()
		return
	}
	if depth+1 < o.MaxDepth { // children at the depth limit are leaves and scan nothing
		n := len(g.rows)
		for j := range g.cols {
			partitionRows(col, g.orders[j*n+lo:j*n+hi], g.part, bestThresh)
		}
	}
	g.m.gains[bestFeat] += bestGain
	left := uint32(len(g.nodes))
	g.nodes = append(g.nodes, gbNode{}, gbNode{})
	g.nodes[at] = gbNode{value: bestThresh, feature: int32(bestFeat), left: left}
	g.grow(left, lo, lo+nl, depth+1)
	g.grow(left+1, lo+nl, hi, depth+1)
}

// bestSplit scans every feature's order of the node at [lo, hi), whose
// gradient and hessian sums are G and H, for the split of largest gain; a
// split falls between two unequal adjacent values. It returns feature -1
// when no split clears MinChildWeight on both sides with positive gain.
func (g *gbGrower) bestSplit(lo, hi int, G, H float64) (feat int, thresh, gain float64) {
	lambda, minWeight := g.m.opts.Lambda, g.m.opts.MinChildWeight
	grad, hess := g.grad, g.hess
	feat = -1
	parentScore := G * G / (H + lambda)
	n := len(g.rows)
	for j, col := range g.cols {
		perm := g.orders[j*n+lo : j*n+hi]
		var GL, HL float64
		for i := 0; i < len(perm)-1; i++ {
			r := perm[i]
			GL += grad[r]
			HL += hess[r]
			v, next := col[r], col[perm[i+1]]
			if v == next {
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < minWeight || HR < minWeight {
				continue
			}
			if s := GL*GL/(HL+lambda) + GR*GR/(HR+lambda) - parentScore; s > gain {
				feat, thresh, gain = j, (v+next)/2, s
			}
		}
	}
	return feat, thresh, gain
}

// predictGB walks the tree rooted at nodes[root] for row and returns the
// weight of the leaf it reaches. A row goes left when its value is at most
// the threshold, so a NaN goes right.
func predictGB(nodes []gbNode, root uint32, row []float64) float64 {
	nd := &nodes[root]
	for nd.feature >= 0 {
		if row[nd.feature] <= nd.value {
			nd = &nodes[nd.left]
		} else {
			nd = &nodes[nd.left+1]
		}
	}
	return nd.value
}

// Predict returns score rows (see Model). The rows share one backing array.
func (m *GBDT) Predict(X [][]float64) [][]float64 {
	width := 1
	if m.task == MultiClass {
		width = m.classes
	}
	out := make([][]float64, len(X))
	flat := make([]float64, len(X)*width)
	raw := make([]float64, m.classes)
	nodes, lr := m.nodes, m.opts.LearningRate
	for i, row := range X {
		for c, roots := range m.roots {
			s := m.base[c]
			for _, root := range roots {
				s += lr * predictGB(nodes, root, row)
			}
			raw[c] = s
		}
		scores := flat[i*width : (i+1)*width : (i+1)*width]
		switch m.task {
		case Regression:
			scores[0] = raw[0]
		case Binary:
			scores[0] = sigmoid(raw[0])
		case MultiClass:
			sum := 0.0
			for c, s := range raw {
				scores[c] = sigmoid(s)
				sum += scores[c]
			}
			if sum <= 0 {
				sum = 1
			}
			for c := range scores {
				scores[c] /= sum
			}
		}
		out[i] = scores
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
