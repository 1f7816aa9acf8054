// Package stats implements the statistical measures FeatAug and the baseline
// feature selectors rely on: mutual information (the paper's default low-cost
// proxy), Spearman and Pearson correlation, the chi-square statistic, the
// Gini-impurity criterion, and Shannon entropy. All measures accept a feature
// vector with a validity mask so NULL feature values (left-join misses) are
// handled without a separate imputation pass.
package stats

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// DefaultBins is the number of equal-frequency bins used when discretising a
// continuous variable for MI / chi-square / Gini.
const DefaultBins = 10

// Discretize maps values into at most bins equal-frequency buckets and
// returns the bucket id per value. Invalid (NULL) entries get the dedicated
// bucket -1 turned into the extra id `bins` so that "missingness" itself can
// carry signal, as scikit-learn's MI estimator effectively does when users
// impute with a sentinel.
func Discretize(values []float64, valid []bool, bins int) []int {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.discretize(make([]int, len(values)), values, valid, bins)
}

// scratch is the working memory of one discretisation and one MI count,
// pooled because the warm-up scores every candidate with MIScore,
// concurrently across templates.
type scratch struct {
	present, cuts []float64
	ids, joint    []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// discretize is Discretize writing the bucket ids into out, which has
// len(values) entries.
func (s *scratch) discretize(out []int, values []float64, valid []bool, bins int) []int {
	if bins <= 0 {
		bins = DefaultBins
	}
	present := s.present[:0]
	for i, v := range values {
		if valid == nil || valid[i] {
			present = append(present, v)
		}
	}
	// Only the cut values matter: -0 and +0 may land in either order, but a
	// cut compares the same whichever zero it is, so no bucket depends on
	// the sort's tie order. NaNs sort first.
	slices.Sort(present)
	s.present = present
	// Bucket boundaries at equal-frequency quantiles (dedup to handle ties).
	cuts := s.cuts[:0]
	for b := 1; b < bins; b++ {
		q := float64(b) / float64(bins)
		idx := int(q * float64(len(present)))
		if idx >= len(present) {
			idx = len(present) - 1
		}
		if idx < 0 {
			continue
		}
		c := present[idx]
		if len(cuts) == 0 || cuts[len(cuts)-1] != c {
			cuts = append(cuts, c)
		}
	}
	s.cuts = cuts
	for i, v := range values {
		if valid != nil && !valid[i] {
			out[i] = bins // missing bucket
			continue
		}
		out[i] = sort.SearchFloat64s(cuts, v)
		// SearchFloat64s returns the insertion index, i.e. #cuts <= v ... we
		// want v == cut to land in the lower bucket, so adjust for equality.
		for out[i] > 0 && v <= cuts[out[i]-1] {
			out[i]--
		}
	}
	return out
}

// Entropy returns the Shannon entropy (nats) of a discrete assignment.
// Accumulation follows sorted key order so the result is bit-for-bit
// reproducible (map iteration order would perturb the float sum and, through
// TPE tie-breaks, whole search trajectories).
func Entropy(labels []int) float64 {
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	n := float64(len(labels))
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, k := range sortedIntKeys(counts) {
		p := float64(counts[k]) / n
		h -= p * math.Log(p)
	}
	return h
}

// sortedIntKeys returns the map's keys ascending.
func sortedIntKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// LabelCodes are class labels rank-coded for MIScore: code c stands for the
// c-th smallest distinct label, so counts indexed by code run in ascending
// label order. Code a label vector once and score every feature against it.
type LabelCodes struct {
	codes  []int32
	counts []int // rows per code
}

// CodeLabels rank-codes labels.
func CodeLabels(labels []int) LabelCodes {
	distinct := slices.Clone(labels)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	l := LabelCodes{codes: make([]int32, len(labels)), counts: make([]int, len(distinct))}
	for i, v := range labels {
		c, _ := slices.BinarySearch(distinct, v)
		l.codes[i] = int32(c)
		l.counts[c]++
	}
	return l
}

// MIScore is the paper's low-cost proxy: MI (nats) between a (possibly
// NULL-bearing) numeric feature, discretised into bins equal-frequency
// buckets plus the NULL bucket, and the task labels. Classification labels
// are used as-is; regression targets should be discretised by the caller via
// LabelsFromFloat. Mismatched lengths score 0.
//
// The joint counts are a dense (bins+1) x classes table, and the sum runs
// over its non-zero cells in (bucket, label) order, so the float sum, and
// with it every TPE tie-break downstream, is reproducible bit for bit.
func MIScore(feature []float64, valid []bool, labels LabelCodes, bins int) float64 {
	if bins <= 0 {
		bins = DefaultBins
	}
	if len(feature) != len(labels.codes) || len(feature) == 0 {
		return 0
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.ids = s.discretize(resized(s.ids, len(feature)), feature, valid, bins)
	return s.mutualInformation(s.ids, bins+1, labels)
}

// mutualInformation returns I(X;Y) in nats between ids x in [0, nx) and the
// coded labels, of equal length n > 0.
func (s *scratch) mutualInformation(x []int, nx int, y LabelCodes) float64 {
	k := len(y.counts)
	joint := resized(s.joint, nx*k)
	clear(joint)
	s.joint = joint
	for i, xi := range x {
		joint[xi*k+int(y.codes[i])]++
	}
	n := float64(len(x))
	mi := 0.0
	for xi := 0; xi < nx; xi++ {
		row := joint[xi*k : (xi+1)*k]
		cx := 0
		for _, c := range row {
			cx += c
		}
		if cx == 0 {
			continue
		}
		px := float64(cx) / n
		for yi, c := range row {
			if c == 0 {
				continue
			}
			pxy := float64(c) / n
			mi += pxy * math.Log(pxy/(px*(float64(y.counts[yi])/n)))
		}
	}
	if mi < 0 {
		mi = 0 // guard against tiny negative rounding
	}
	return mi
}

// resized returns s with length n, reallocated only if its capacity is short.
func resized(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// LabelsFromFloat turns a numeric target into discrete labels: already
// discrete (few distinct integers) targets keep their values, otherwise the
// target is binned.
func LabelsFromFloat(y []float64, bins int) []int {
	distinct := map[float64]bool{}
	allInt := true
	for _, v := range y {
		distinct[v] = true
		if v != math.Trunc(v) {
			allInt = false
		}
	}
	if allInt && len(distinct) <= 32 {
		out := make([]int, len(y))
		for i, v := range y {
			out[i] = int(v)
		}
		return out
	}
	return Discretize(y, nil, bins)
}

// Pearson returns the Pearson correlation between x and y over the rows
// where valid is true (nil = all). Returns 0 when degenerate.
func Pearson(x, y []float64, valid []bool) float64 {
	var sx, sy, sxx, syy, sxy, n float64
	for i := range x {
		if valid != nil && !valid[i] {
			continue
		}
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
		n++
	}
	if n < 2 {
		return 0
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Ranks returns average ranks (1-based, ties averaged), the Spearman
// building block.
func Ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && x[idx[j]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	return ranks
}

// Spearman returns the Spearman rank correlation ρ between x and y over the
// valid rows (Section VII.E's "SC" proxy).
func Spearman(x, y []float64, valid []bool) float64 {
	var fx, fy []float64
	for i := range x {
		if valid != nil && !valid[i] {
			continue
		}
		fx = append(fx, x[i])
		fy = append(fy, y[i])
	}
	if len(fx) < 2 {
		return 0
	}
	return Pearson(Ranks(fx), Ranks(fy), nil)
}

// ChiSquare returns the chi-square statistic of independence between a
// discretised feature and class labels.
func ChiSquare(x, labels []int) float64 {
	if len(x) != len(labels) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	joint := map[[2]int]float64{}
	px := map[int]float64{}
	py := map[int]float64{}
	for i := range x {
		joint[[2]int{x[i], labels[i]}]++
		px[x[i]]++
		py[labels[i]]++
	}
	xkeys := make([]int, 0, len(px))
	for k := range px {
		xkeys = append(xkeys, k)
	}
	sort.Ints(xkeys)
	ykeys := make([]int, 0, len(py))
	for k := range py {
		ykeys = append(ykeys, k)
	}
	sort.Ints(ykeys)
	chi := 0.0
	for _, xv := range xkeys {
		for _, yv := range ykeys {
			expected := px[xv] * py[yv] / n
			observed := joint[[2]int{xv, yv}]
			d := observed - expected
			chi += d * d / expected
		}
	}
	return chi
}

// GiniImpurity returns the Gini impurity of a label multiset.
func GiniImpurity(labels []int) float64 {
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	n := float64(len(labels))
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, k := range sortedIntKeys(counts) {
		p := float64(counts[k]) / n
		g -= p * p
	}
	return g
}

// GiniGain returns the impurity decrease obtained by partitioning labels by
// the discretised feature x — the "Gini" feature-selection score the paper's
// FT+Gini baseline uses.
func GiniGain(x, labels []int) float64 {
	if len(x) != len(labels) || len(x) == 0 {
		return 0
	}
	base := GiniImpurity(labels)
	groups := map[int][]int{}
	for i, xv := range x {
		groups[xv] = append(groups[xv], labels[i])
	}
	gkeys := make([]int, 0, len(groups))
	for k := range groups {
		gkeys = append(gkeys, k)
	}
	sort.Ints(gkeys)
	after := 0.0
	n := float64(len(labels))
	for _, k := range gkeys {
		g := groups[k]
		after += float64(len(g)) / n * GiniImpurity(g)
	}
	return base - after
}
