package ml

import "math"

// treeNode is one node of a CART tree. Leaves carry either a class
// distribution (classification) or a mean value (regression).
type treeNode struct {
	feature  int
	thresh   float64
	left     *treeNode
	right    *treeNode
	leafDist []float64 // classification leaves
	leafVal  float64   // regression leaves
	isLeaf   bool
}

// treeOptions control CART growth.
type treeOptions struct {
	maxDepth       int
	minSamplesLeaf int
	// maxFeatures limits the number of candidate features per split
	// (random-forest style); 0 = all features.
	maxFeatures int
	classes     int  // >0 for classification
	regression  bool // variance-reduction splits
	// rng supplies feature subsampling; may be nil when maxFeatures == 0.
	intn func(int) int
}

// buildTree grows a CART tree over the row subset rows, which it reorders in
// place. cols is the training matrix column-major (see columns).
func buildTree(cols [][]float64, y []float64, rows []int, depth int, o treeOptions) *treeNode {
	b := &cartBuilder{cols: cols, y: y, o: o,
		vals: make([]valRow, len(rows)), part: make([]int, len(rows)), cand: make([]int, len(cols))}
	return b.grow(rows, depth)
}

// cartBuilder is one tree's growth state: the scan, partition and candidate
// buffers are shared by all of its nodes.
type cartBuilder struct {
	cols [][]float64
	y    []float64
	o    treeOptions
	vals []valRow
	part []int
	cand []int
}

func (b *cartBuilder) grow(rows []int, depth int) *treeNode {
	o := b.o
	if len(rows) == 0 {
		return &treeNode{isLeaf: true, leafDist: make([]float64, o.classes)}
	}
	if depth >= o.maxDepth || len(rows) < 2*o.minSamplesLeaf || pure(b.y, rows) {
		return makeLeaf(b.y, rows, o)
	}
	feat, thresh, ok := b.bestSplit(rows)
	if !ok {
		return makeLeaf(b.y, rows, o)
	}
	col := b.cols[feat]
	nl := 0
	for _, r := range rows {
		if col[r] <= thresh {
			nl++
		}
	}
	// Checked before partitioning: a regression leaf sums its rows in order.
	if nl < o.minSamplesLeaf || len(rows)-nl < o.minSamplesLeaf {
		return makeLeaf(b.y, rows, o)
	}
	partitionRows(col, rows, b.part, thresh)
	return &treeNode{
		feature: feat,
		thresh:  thresh,
		left:    b.grow(rows[:nl], depth+1),
		right:   b.grow(rows[nl:], depth+1),
	}
}

// partitionRows reorders rows in place so that the rows with col[r] <= t
// come first, each side keeping its relative order (the order appending to
// two lists gives), and returns how many went left. buf is scratch with
// capacity for rows.
func partitionRows[R int | int32](col []float64, rows, buf []R, t float64) int {
	right := buf[:len(rows)]
	nl, nr := 0, 0
	for _, r := range rows {
		// Both stores happen and one count moves, so the loop has no branch
		// to mispredict; rows[nl] is at or before the row just read.
		l := 0
		if col[r] <= t {
			l = 1
		}
		rows[nl], right[nr] = r, r
		nl += l
		nr += 1 - l
	}
	copy(rows[nl:], right[:nr])
	return nl
}

// columns returns X column-major: columns(X)[j][r] == X[r][j].
func columns(X [][]float64) [][]float64 {
	n := len(X)
	cols := make([][]float64, len(X[0]))
	flat := make([]float64, n*len(cols))
	for j := range cols {
		col := flat[j*n : (j+1)*n : (j+1)*n]
		for r, row := range X {
			col[r] = row[j]
		}
		cols[j] = col
	}
	return cols
}

// constantOn reports whether col[r] == col[rows[0]] for every r in rows, in
// which case a sort could only leave equal ends and the split scans skip the
// feature without sorting it. A NaN makes it false.
func constantOn(col []float64, rows []int) bool {
	first := col[rows[0]]
	for _, r := range rows[1:] {
		if col[r] != first {
			return false
		}
	}
	return true
}

func pure(y []float64, rows []int) bool {
	for _, r := range rows[1:] {
		if y[r] != y[rows[0]] {
			return false
		}
	}
	return true
}

func makeLeaf(y []float64, rows []int, o treeOptions) *treeNode {
	if o.regression {
		m := 0.0
		for _, r := range rows {
			m += y[r]
		}
		if len(rows) > 0 {
			m /= float64(len(rows))
		}
		return &treeNode{isLeaf: true, leafVal: m}
	}
	dist := make([]float64, o.classes)
	for _, r := range rows {
		dist[int(y[r])]++
	}
	total := float64(len(rows))
	if total > 0 {
		for c := range dist {
			dist[c] /= total
		}
	}
	return &treeNode{isLeaf: true, leafDist: dist}
}

// bestSplit scans candidate features for the impurity-minimising threshold.
// Classification uses Gini; regression uses within-node variance.
//
// Each candidate's values are sorted by (value, row) with sortValRows, so a
// regression scan's sums run in an order fixed by the rows, not by a sort
// algorithm; Gini counts are exact, so a classification scan sees no tie
// order at all.
func (b *cartBuilder) bestSplit(rows []int) (feat int, thresh float64, ok bool) {
	o := b.o
	p := len(b.cols)
	candidates := b.cand
	for j := range candidates {
		candidates[j] = j
	}
	if o.maxFeatures > 0 && o.maxFeatures < p && o.intn != nil {
		// Fisher–Yates prefix shuffle.
		for j := 0; j < o.maxFeatures; j++ {
			k := j + o.intn(p-j)
			candidates[j], candidates[k] = candidates[k], candidates[j]
		}
		candidates = candidates[:o.maxFeatures]
	}
	bestScore := math.Inf(1)
	vals := b.vals[:len(rows)]
	for _, j := range candidates {
		col := b.cols[j]
		if constantOn(col, rows) {
			continue
		}
		for k, r := range rows {
			vals[k] = valRow{col[r], int32(r)}
		}
		sortValRows(vals)
		if o.regression {
			score, th, found := bestVarianceSplit(vals, b.y, o.minSamplesLeaf)
			if found && score < bestScore {
				bestScore, feat, thresh, ok = score, j, th, true
			}
		} else {
			score, th, found := bestGiniSplit(vals, b.y, o.classes, o.minSamplesLeaf)
			if found && score < bestScore {
				bestScore, feat, thresh, ok = score, j, th, true
			}
		}
	}
	return feat, thresh, ok
}

// bestGiniSplit scans vals, sorted by value, for the split minimising the
// weighted Gini impurity of the class labels y[r].
func bestGiniSplit(vals []valRow, y []float64, classes, minLeaf int) (best, thresh float64, ok bool) {
	n := len(vals)
	right := make([]float64, classes)
	left := make([]float64, classes)
	for _, x := range vals {
		right[int(y[x.r])]++
	}
	best = math.Inf(1)
	nl := 0.0
	for i := 0; i < n-1; i++ {
		c := int(y[vals[i].r])
		left[c]++
		right[c]--
		nl++
		if vals[i].v == vals[i+1].v {
			continue
		}
		if int(nl) < minLeaf || n-int(nl) < minLeaf {
			continue
		}
		nr := float64(n) - nl
		gl, gr := 1.0, 1.0
		for cc := 0; cc < classes; cc++ {
			pl := left[cc] / nl
			pr := right[cc] / nr
			gl -= pl * pl
			gr -= pr * pr
		}
		score := (nl*gl + nr*gr) / float64(n)
		if score < best {
			best = score
			thresh = (vals[i].v + vals[i+1].v) / 2
			ok = true
		}
	}
	return best, thresh, ok
}

// bestVarianceSplit is bestGiniSplit for regression: it minimises the
// weighted within-side variance of the targets y[r].
func bestVarianceSplit(vals []valRow, y []float64, minLeaf int) (best, thresh float64, ok bool) {
	n := len(vals)
	var sumR, sumR2 float64
	for _, x := range vals {
		yv := y[x.r]
		sumR += yv
		sumR2 += yv * yv
	}
	var sumL, sumL2, nl float64
	best = math.Inf(1)
	for i := 0; i < n-1; i++ {
		yv := y[vals[i].r]
		sumL += yv
		sumL2 += yv * yv
		sumR -= yv
		sumR2 -= yv * yv
		nl++
		if vals[i].v == vals[i+1].v {
			continue
		}
		if int(nl) < minLeaf || n-int(nl) < minLeaf {
			continue
		}
		nr := float64(n) - nl
		varL := sumL2/nl - (sumL/nl)*(sumL/nl)
		varR := sumR2/nr - (sumR/nr)*(sumR/nr)
		score := (nl*varL + nr*varR) / float64(n)
		if score < best {
			best = score
			thresh = (vals[i].v + vals[i+1].v) / 2
			ok = true
		}
	}
	return best, thresh, ok
}

// predictRow walks the tree for one input row.
func (t *treeNode) predictRow(row []float64) *treeNode {
	node := t
	for !node.isLeaf {
		if row[node.feature] <= node.thresh {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node
}

// depth returns the tree depth (leaf = 1), a diagnostic used by tests.
func (t *treeNode) depth() int {
	if t.isLeaf {
		return 1
	}
	l, r := t.left.depth(), t.right.depth()
	if l > r {
		return l + 1
	}
	return r + 1
}
