package ml

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The reference trainers below are naive: every node gathers its rows,
// sorts them stably by value (cmp.Compare, so NaNs first) in fresh buffers,
// and partitions into fresh slices, and scores are updated by re-walking each
// new tree. A node's rows ascend, so its stable order is the (value, row)
// order the package's presorted orders keep, and its G and H are summed in
// that ascending row order, as the package sums them. They are test-local
// oracles, so no second training path lives in the package; the equivalence
// tests require the package's trainers to build the same trees, bit for bit.

// refFitGBDT trains m the reference way.
func refFitGBDT(m *GBDT, X [][]float64, y []float64) {
	p := len(X[0])
	m.gains = make([]float64, p)
	switch m.task {
	case Binary, Regression:
		m.classes = 1
	case MultiClass:
		m.classes = NumClasses(y)
	}
	m.base = make([]float64, m.classes)
	m.roots = make([][]uint32, m.classes)
	m.nodes = nil
	n := len(X)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	for c := 0; c < m.classes; c++ {
		target := make([]float64, n)
		for i := range target {
			switch m.task {
			case Regression, Binary:
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
		}
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = m.base[c]
		}
		grad := make([]float64, n)
		hess := make([]float64, n)
		for round := 0; round < m.opts.NumRounds; round++ {
			for i := 0; i < n; i++ {
				if m.task == Regression {
					grad[i] = scores[i] - target[i]
					hess[i] = 1
				} else {
					pi := sigmoid(scores[i])
					grad[i] = pi - target[i]
					hess[i] = pi * (1 - pi)
					if hess[i] < 1e-6 {
						hess[i] = 1e-6
					}
				}
			}
			root := uint32(len(m.nodes))
			m.nodes = append(m.nodes, gbNode{})
			refGrowTree(m, root, X, grad, hess, rows, 0)
			m.roots[c] = append(m.roots[c], root)
			for i := 0; i < n; i++ {
				scores[i] += m.opts.LearningRate * predictGB(m.nodes, root, X[i])
			}
		}
	}
}

// refGrowTree grows the tree over rows (ascending) into m.nodes[at], which
// the caller has appended, appending each split's two children side by side.
func refGrowTree(m *GBDT, at uint32, X [][]float64, grad, hess []float64, rows []int, depth int) {
	o := m.opts
	var G, H float64
	for _, r := range rows {
		G += grad[r]
		H += hess[r]
	}
	if depth >= o.MaxDepth || len(rows) < 2 {
		m.nodes[at] = gbNode{value: -G / (H + o.Lambda), feature: -1}
		return
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentScore := G * G / (H + o.Lambda)
	for j := range X[0] {
		sorted := slices.Clone(rows)
		sort.SliceStable(sorted, func(a, b int) bool {
			return cmp.Less(X[sorted[a]][j], X[sorted[b]][j])
		})
		var GL, HL float64
		for i := 0; i+1 < len(sorted); i++ {
			GL += grad[sorted[i]]
			HL += hess[sorted[i]]
			v, next := X[sorted[i]][j], X[sorted[i+1]][j]
			if v == next {
				continue
			}
			GR, HR := G-GL, H-HL
			if HL < o.MinChildWeight || HR < o.MinChildWeight {
				continue
			}
			gain := GL*GL/(HL+o.Lambda) + GR*GR/(HR+o.Lambda) - parentScore
			if gain > bestGain {
				bestGain, bestFeat, bestThresh = gain, j, (v+next)/2
			}
		}
	}
	var left, right []int
	if bestFeat >= 0 && bestGain > 1e-12 {
		for _, r := range rows {
			if X[r][bestFeat] <= bestThresh {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	}
	if len(left) == 0 || len(right) == 0 {
		m.nodes[at] = gbNode{value: -G / (H + o.Lambda), feature: -1}
		return
	}
	m.gains[bestFeat] += bestGain
	kids := uint32(len(m.nodes))
	m.nodes = append(m.nodes, gbNode{}, gbNode{})
	m.nodes[at] = gbNode{value: bestThresh, feature: int32(bestFeat), left: kids}
	refGrowTree(m, kids, X, grad, hess, left, depth+1)
	refGrowTree(m, kids+1, X, grad, hess, right, depth+1)
}

// refFitForest trains m the reference way.
func refFitForest(m *RandomForest, X [][]float64, y []float64) {
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
	}
	m.trees = m.trees[:0]
	n := len(X)
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
		m.trees = append(m.trees, refBuildTree(X, y, rows, 0, o))
	}
}

func refBuildTree(X [][]float64, y []float64, rows []int, depth int, o treeOptions) *treeNode {
	if len(rows) == 0 {
		return &treeNode{isLeaf: true, leafDist: make([]float64, o.classes)}
	}
	if depth >= o.maxDepth || len(rows) < 2*o.minSamplesLeaf || pure(y, rows) {
		return makeLeaf(y, rows, o)
	}
	feat, thresh, ok := refBestSplit(X, y, rows, o)
	if !ok {
		return makeLeaf(y, rows, o)
	}
	var left, right []int
	for _, r := range rows {
		if X[r][feat] <= thresh {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < o.minSamplesLeaf || len(right) < o.minSamplesLeaf {
		return makeLeaf(y, rows, o)
	}
	return &treeNode{
		feature: feat,
		thresh:  thresh,
		left:    refBuildTree(X, y, left, depth+1, o),
		right:   refBuildTree(X, y, right, depth+1, o),
	}
}

// refBestSplit sorts each candidate's values by value, then row. A bootstrap
// node's rows are neither ascending nor distinct, so a stable sort by value
// alone would leave ties in draw order.
func refBestSplit(X [][]float64, y []float64, rows []int, o treeOptions) (feat int, thresh float64, ok bool) {
	p := len(X[rows[0]])
	candidates := make([]int, p)
	for j := range candidates {
		candidates[j] = j
	}
	if o.maxFeatures > 0 && o.maxFeatures < p && o.intn != nil {
		for j := 0; j < o.maxFeatures; j++ {
			k := j + o.intn(p-j)
			candidates[j], candidates[k] = candidates[k], candidates[j]
		}
		candidates = candidates[:o.maxFeatures]
	}
	bestScore := math.Inf(1)
	for _, j := range candidates {
		var vals []valRow
		for _, r := range rows {
			vals = append(vals, valRow{X[r][j], int32(r)})
		}
		sort.Slice(vals, func(a, b int) bool {
			if c := cmp.Compare(vals[a].v, vals[b].v); c != 0 {
				return c < 0
			}
			return vals[a].r < vals[b].r
		})
		if o.regression {
			score, th, found := bestVarianceSplit(vals, y, o.minSamplesLeaf)
			if found && score < bestScore {
				bestScore, feat, thresh, ok = score, j, th, true
			}
		} else {
			score, th, found := bestGiniSplit(vals, y, o.classes, o.minSamplesLeaf)
			if found && score < bestScore {
				bestScore, feat, thresh, ok = score, j, th, true
			}
		}
	}
	return feat, thresh, ok
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// samePredictions compares two models' Predict output on X bit for bit.
func samePredictions(t *testing.T, what string, got, want Model, X [][]float64) {
	t.Helper()
	gp, wp := got.Predict(X), want.Predict(X)
	for i := range gp {
		sameBits(t, what+" predict row", gp[i], wp[i])
	}
}

// checkGBDTMatchesReference fits the package GBDT and the reference on the
// same problem and requires bit-identical predictions (on the training rows
// and the probe rows) and feature importances.
func checkGBDTMatchesReference(t *testing.T, what string, task Task, opts GBDTOptions, X [][]float64, y []float64, probe [][]float64) {
	t.Helper()
	got := NewGBDT(task, opts)
	if err := got.Fit(X, y); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := NewGBDT(task, opts)
	refFitGBDT(want, X, y)
	samePredictions(t, what, got, want, X)
	samePredictions(t, what+" probe", got, want, probe)
	sameBits(t, what+" importance", got.FeatureImportance(), want.FeatureImportance())
}

// checkForestMatchesReference is checkGBDTMatchesReference for the forest.
func checkForestMatchesReference(t *testing.T, what string, task Task, opts ForestOptions, X [][]float64, y []float64, probe [][]float64) {
	t.Helper()
	got := NewRandomForest(task, opts)
	if err := got.Fit(X, y); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := NewRandomForest(task, opts)
	refFitForest(want, X, y)
	samePredictions(t, what, got, want, X)
	samePredictions(t, what+" probe", got, want, probe)
}

// tieHeavyProblem draws an n×p problem whose columns are mostly small-integer
// valued (a few levels, so nodes are full of ties, some with NaN mixed in),
// with a duplicated column and a constant column when p allows, plus labels
// for the task.
func tieHeavyProblem(rng *rand.Rand, task Task, n, p int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	levels := make([]int, p)
	for j := range levels {
		levels[j] = 1 + rng.Intn(6)
	}
	for i := range X {
		row := make([]float64, p)
		for j := range row {
			switch {
			case j == 1 && p > 2:
				row[j] = row[0] // duplicate column
			case j == p-1 && p > 3:
				row[j] = 7 // constant column
			case levels[j] == 6:
				row[j] = math.Round(rng.NormFloat64()*100) / 100
			case levels[j] == 5 && rng.Intn(4) == 0:
				row[j] = math.NaN()
			default:
				row[j] = float64(rng.Intn(levels[j]))
			}
		}
		X[i] = row
		switch task {
		case Binary:
			if row[0]+rng.NormFloat64() > 1 {
				y[i] = 1
			}
		case MultiClass:
			y[i] = float64(rng.Intn(3))
		case Regression:
			y[i] = float64(rng.Intn(5)) + row[0]*0.5
		}
	}
	return X, y
}

// probeRows are off-grid inputs: midpoints, extremes and NaN.
func probeRows(p int) [][]float64 {
	var out [][]float64
	for _, v := range []float64{-1, 0.5, 1.5, 2.5, 100, math.Inf(1), math.Inf(-1), math.NaN()} {
		row := make([]float64, p)
		for j := range row {
			row[j] = v
		}
		out = append(out, row)
	}
	return out
}

func TestGBDTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 2, 3, 5, 8, 12, 13, 20, 33, 50, 90, 150, 200}
	for _, task := range []Task{Binary, Regression, MultiClass} {
		for k, n := range sizes {
			p := 1 + k%5
			X, y := tieHeavyProblem(rng, task, n, p)
			opts := GBDTOptions{NumRounds: 8 + k%3*8, MaxDepth: 2 + k%4}
			checkGBDTMatchesReference(t, task.String(), task, opts, X, y, probeRows(p))
		}
	}
	// The fit-student shape at the library defaults: 90 rows, an integer
	// base feature and an aggregate.
	X, y := studentShape(90, 3)
	checkGBDTMatchesReference(t, "student", Binary, GBDTOptions{}, X, y, probeRows(2))
	X, y = studentImputedShape(90, 1)
	checkGBDTMatchesReference(t, "student imputed", Binary, GBDTOptions{}, X, y, probeRows(2))
}

func TestForestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sizes := []int{1, 2, 3, 5, 8, 12, 13, 20, 33, 50, 90, 150, 200}
	for _, task := range []Task{Binary, Regression, MultiClass} {
		for k, n := range sizes {
			p := 1 + k%5
			X, y := tieHeavyProblem(rng, task, n, p)
			opts := ForestOptions{NumTrees: 5, MaxDepth: 3 + k%5, MinSamplesLeaf: 1 + k%3, Seed: int64(k)}
			checkForestMatchesReference(t, task.String(), task, opts, X, y, probeRows(p))
		}
	}
	// The fuzz decoder's problems: few levels, ±Inf and NaN.
	data := make([]byte, 400)
	for i := 0; i < 300; i++ {
		rng.Read(data)
		task, gopts, X, y := fuzzProblem(data)
		opts := ForestOptions{NumTrees: 3, MaxDepth: gopts.MaxDepth, MinSamplesLeaf: 1 + i%2, Seed: int64(i)}
		checkForestMatchesReference(t, "decoded "+task.String(), task, opts, X, y, probeRows(len(X[0])))
	}
}

// fuzzProblem decodes bytes into a training problem: a task, a shape, a
// depth and round count, feature values drawn from a few small integers plus
// ±Inf and NaN, and labels valid for the task. Missing bytes read as zero, so
// every input decodes.
func fuzzProblem(data []byte) (Task, GBDTOptions, [][]float64, []float64) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	task := []Task{Binary, Regression, MultiClass}[int(at(0))%3]
	n := 1 + int(at(1))%64
	p := 1 + int(at(2))%4
	opts := GBDTOptions{NumRounds: 1 + int(at(3))%6, MaxDepth: 1 + int(at(4))%5}
	pos := 5
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for j := range X[i] {
			b := at(pos)
			pos++
			switch b % 16 {
			case 13:
				X[i][j] = math.NaN()
			case 14:
				X[i][j] = math.Inf(1)
			case 15:
				X[i][j] = math.Inf(-1)
			default:
				X[i][j] = float64(b%16) - 4
			}
		}
		b := at(pos)
		pos++
		switch task {
		case Binary:
			y[i] = float64(b & 1)
		case MultiClass:
			y[i] = float64(b % 3)
		case Regression:
			y[i] = float64(b)/8 - 16
		}
	}
	return task, opts, X, y
}

// FuzzGBDTMatchesReference requires GBDT.Fit to build the reference's trees
// bit for bit on any decoded problem, NaN and infinities included. The seed
// corpus runs under plain `go test`; `go test -fuzz FuzzGBDTMatchesReference`
// explores further.
func FuzzGBDTMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 24; i++ {
		b := make([]byte, 5+(1+i*3)*5)
		rng.Read(b)
		b[0], b[1], b[2] = byte(i), byte(i*3), byte(i)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 20, 1, 5, 4, 13, 0, 13, 1, 0, 0, 13, 1, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		task, opts, X, y := fuzzProblem(data)
		checkGBDTMatchesReference(t, task.String(), task, opts, X, y, probeRows(len(X[0])))
	})
}

// studentShape is the fit-student workload's model input: an integer base
// feature with four levels (the grade), a count-like aggregate, and a binary
// label.
func studentShape(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		skill := rng.NormFloat64()
		grade := float64(6 + rng.Intn(4))
		X[i] = []float64{grade, float64(rng.Intn(8)) + math.Round(4*skill)}
		if 2.3*skill+0.1*(grade-7)+0.5*rng.NormFloat64() > 0.2 {
			y[i] = 1
		}
	}
	return X, y
}

// studentImputedShape is fit-student's model input once a candidate feature
// joins it: the four-level grade, an AVG aggregate over each student's events
// (about 55 distinct values at 90 rows), NULL for the students without events
// and imputed with the column mean as FromTable imputes it, and a binary
// label.
func studentImputedShape(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	var sum float64
	var present int
	var missing []int
	for i := range X {
		skill := rng.NormFloat64()
		grade := float64(6 + rng.Intn(4))
		X[i] = []float64{grade, 0}
		if 2.3*skill+0.1*(grade-7)+0.5*rng.NormFloat64() > 0.2 {
			y[i] = 1
		}
		if rng.Intn(6) == 0 {
			missing = append(missing, i)
			continue
		}
		events := 1 + rng.Intn(5)
		s := 0
		for k := 0; k < events; k++ {
			s += rng.Intn(20) + int(math.Round(2*skill))
		}
		X[i][1] = float64(s) / float64(events)
		sum += X[i][1]
		present++
	}
	for _, i := range missing {
		X[i][1] = sum / float64(present)
	}
	return X, y
}

// BenchmarkGBDTFit and BenchmarkGBDTFitReference time one fit-student model
// fit (90 training rows of studentImputedShape, library defaults) with the
// package's trainer and with the reference.
func BenchmarkGBDTFit(b *testing.B) {
	X, y := studentImputedShape(90, 1)
	b.ReportAllocs()
	for b.Loop() {
		if err := NewGBDT(Binary, GBDTOptions{}).Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBDTPredict times one fit-student validation-plus-test
// prediction: 60 rows through a model fitted as BenchmarkGBDTFit fits it.
func BenchmarkGBDTPredict(b *testing.B) {
	X, y := studentImputedShape(90, 1)
	m := NewGBDT(Binary, GBDTOptions{})
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	probe, _ := studentImputedShape(60, 2)
	b.ReportAllocs()
	for b.Loop() {
		m.Predict(probe)
	}
}

func BenchmarkGBDTFitReference(b *testing.B) {
	X, y := studentImputedShape(90, 1)
	b.ReportAllocs()
	for b.Loop() {
		refFitGBDT(NewGBDT(Binary, GBDTOptions{}), X, y)
	}
}
