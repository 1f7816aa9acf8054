package ml

import (
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
			for i := range g.rows { // the last tree's partitions reordered them
				g.rows[i] = i
			}
			root := uint32(len(g.nodes))
			g.nodes = append(g.nodes, gbNode{})
			g.grow(root, g.rows, 0)
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
// Tie order is part of the model. A split's GL/HL are summed in the order the
// sort leaves the node's rows in, and tied values stay wherever pdqsort puts
// them, so the gains, and with them the chosen splits, depend on pdqsort's
// exact permutation of the node's values taken in ascending row order. That
// permutation is fixed by sortValRows, the package's own copy of Go 1.24's
// pdqsort (pdqsort.go), and not by the toolchain's slices package, so a Go
// upgrade cannot move the models; FuzzSortValRowsMatchesSortFunc flags any
// drift between the two. Partitions are stable so a node's rows stay
// ascending, and sorted orders are memoised by row set, which is exact
// because the permutation depends only on the value sequence and the data is
// fixed for the Fit. The root (rows 0..n-1) is thus sorted once, and the
// child row sets boosting revisits round after round are not sorted again. A
// stable sort, or a child order filtered from its parent's sorted order,
// would break ties differently and change the models.
//
// Growers are pooled: Fit takes one from growerPool and puts it back when it
// returns, so the scratch slices, the memo's map and its slab are reused
// across fits. A model keeps nothing of the grower's: the trees grow into the
// grower's node scratch, and the model takes a copy of exactly the nodes it
// grew. A pooled grower keeps its memo slab, as large as the largest memo a
// fit built (orderMemoBytes plus growth slack, or the root's orders when
// those alone are larger), until a GC clears the pool.
type gbGrower struct {
	m              *GBDT
	cols           [][]float64 // the training matrix, column-major
	grad, hess     []float64
	target, scores []float64 // the class booster's labels and running scores
	rows           []int
	pairs          []valRow
	part           []int
	leafWeight     []float64 // per training row: the weight of the leaf it reached this round
	nodes          []gbNode  // every tree grown in this fit

	// The sorted-order memo. Entry i's row set is slab[off:off+n], followed
	// by one order of n rows per feature; heads maps a row-set hash to its
	// newest entry, and entries with equal hashes chain through next.
	heads   map[uint64]int32
	entries []memoEntry
	slab    []int32
	budget  int // bytes the memo may still take
}

// orderMemoBytes bounds one Fit's sorted-order memo; once it is spent, new
// row sets are sorted without being kept. The root's orders, the first
// stored, are kept whatever their size.
const orderMemoBytes = 8 << 20

// memoEntry locates one memoised row set in the grower's slab.
type memoEntry struct {
	off, n int
	next   int32 // the entry with the same hash stored before it, or -1
}

// nodeOrders is one row set's sort result: n rows in the order pdqsort leaves
// each feature's values in, feature after feature. A feature whose first
// entry is -1 has equal sorted ends (a constant feature, or one a NaN hides
// the spread of), which the split scan has always skipped.
type nodeOrders struct {
	perms []int32
	n     int
}

// feature returns feature j's sorted order, or nil when the scan skips it.
func (o nodeOrders) feature(j int) []int32 {
	perm := o.perms[j*o.n : (j+1)*o.n]
	if perm[0] < 0 {
		return nil
	}
	return perm
}

// valRow is one row's feature value, sorted by value.
type valRow struct {
	v float64
	r int32
}

var growerPool = sync.Pool{New: func() any {
	return &gbGrower{heads: map[uint64]int32{}}
}}

// getGBGrower takes a grower from the pool and readies it for a fit of m on
// the n rows of cols.
func getGBGrower(m *GBDT, cols [][]float64, n int) *gbGrower {
	g := growerPool.Get().(*gbGrower)
	g.m, g.cols = m, cols
	g.grad, g.hess = resized(g.grad, n), resized(g.hess, n)
	g.target, g.scores = resized(g.target, n), resized(g.scores, n)
	g.rows, g.pairs = resized(g.rows, n), resized(g.pairs, n)
	g.part = resized(g.part, n)[:0]
	g.leafWeight = resized(g.leafWeight, n)
	g.nodes = g.nodes[:0]
	clear(g.heads)
	g.entries, g.slab = g.entries[:0], g.slab[:0]
	g.budget = orderMemoBytes
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

// sortedOrders returns the per-feature sorted orders of rows (ascending),
// from the memo when this row set was sorted before in the Fit. The result
// is valid until the next call.
func (g *gbGrower) sortedOrders(rows []int) nodeOrders {
	h := uint64(14695981039346656037) // FNV-1a over the row indices
	for _, r := range rows {
		h = (h ^ uint64(r)) * 1099511628211
	}
	n, p := len(rows), len(g.cols)
	next := int32(-1)
	if head, ok := g.heads[h]; ok {
		next = head
		for i := head; i >= 0; i = g.entries[i].next {
			e := g.entries[i]
			if e.n == n && sameRows(g.slab[e.off:e.off+n], rows) {
				return nodeOrders{g.slab[e.off+n : e.off+n*(1+p)], n}
			}
		}
	}
	// Sort into the slab past its end, and keep the entry by extending the
	// slab over it when the budget allows.
	off, size := len(g.slab), n*(1+p)
	g.slab = slices.Grow(g.slab, size)
	e := g.slab[off : off+size]
	for k, r := range rows {
		e[k] = int32(r)
	}
	pairs := g.pairs[:n]
	for j, col := range g.cols {
		perm := e[n*(1+j) : n*(2+j)]
		perm[0] = -1
		if constantOn(col, rows) {
			continue
		}
		for k, r := range rows {
			pairs[k] = valRow{col[r], int32(r)}
		}
		sortValRows(pairs)
		if pairs[0].v == pairs[n-1].v {
			continue
		}
		for k, pr := range pairs {
			perm[k] = pr.r
		}
	}
	if cost := 4 * size; cost <= g.budget || len(g.entries) == 0 {
		g.budget -= cost
		g.slab = g.slab[:off+size]
		g.heads[h] = int32(len(g.entries))
		g.entries = append(g.entries, memoEntry{off: off, n: n, next: next})
	}
	return nodeOrders{e[n:], n}
}

// sameRows reports whether the stored row set s equals rows.
func sameRows(s []int32, rows []int) bool {
	for k, r := range rows {
		if int(s[k]) != r {
			return false
		}
	}
	return true
}

// grow grows the tree over rows into g.nodes[at], which the caller has
// appended.
func (g *gbGrower) grow(at uint32, rows []int, depth int) {
	o := g.m.opts
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
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentScore := G * G / (H + o.Lambda)
	orders := g.sortedOrders(rows)
	for j, col := range g.cols {
		perm := orders.feature(j)
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
		leaf()
		return
	}
	nl := partitionRows(g.cols[bestFeat], rows, g.part, bestThresh)
	if nl == 0 || nl == len(rows) {
		leaf()
		return
	}
	g.m.gains[bestFeat] += bestGain
	left := uint32(len(g.nodes))
	g.nodes = append(g.nodes, gbNode{}, gbNode{})
	g.nodes[at] = gbNode{value: bestThresh, feature: int32(bestFeat), left: left}
	g.grow(left, rows[:nl], depth+1)
	g.grow(left+1, rows[nl:], depth+1)
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
