package query

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dataframe"
)

// SpaceOptions bound the discretisation of predicate value domains.
type SpaceOptions struct {
	// MaxCategories caps the equality-predicate domain per categorical
	// attribute (most frequent first would require counting; we use the
	// sorted distinct prefix for determinism). 0 means DefaultMaxCategories.
	MaxCategories int
	// NumGridPoints is the number of quantile grid points for numeric /
	// datetime range bounds. 0 means DefaultNumGridPoints.
	NumGridPoints int
}

// Defaults for SpaceOptions.
const (
	DefaultMaxCategories = 24
	DefaultNumGridPoints = 8
)

func (o SpaceOptions) normalized() SpaceOptions {
	if o.MaxCategories <= 0 {
		o.MaxCategories = DefaultMaxCategories
	}
	if o.NumGridPoints <= 0 {
		o.NumGridPoints = DefaultNumGridPoints
	}
	return o
}

// Dim is one discrete dimension of the query search space. Every dimension
// is an index in [0, Card).
type Dim struct {
	Name string
	Card int
}

// predDim records how one predicate attribute maps onto vector dimensions.
type predDim struct {
	attr  string
	isCat bool
	isNum bool // numeric or time (range predicate)
	// categorical
	catDomain  []string
	boolDomain bool // attribute is a bool column
	// numeric
	grid []float64
}

// Space is the discrete search space V of a query pool Q_T: the bijection
// between query vectors and predicate-aware SQL queries of Section V.A.
type Space struct {
	Template Template
	Dims     []Dim
	preds    []predDim
	// dimension offsets
	aggDim   int
	attrDim  int
	predBase int
	keyBase  int
}

// BuildSpace derives the search space of the template's query pool from the
// relevant table: the aggregation-function dimension, the aggregation-
// attribute dimension, per-predicate value dimensions (categorical domains
// get an equality dimension with a None option; numeric/datetime attributes
// get lower- and upper-bound dimensions over a quantile grid, each with a
// None option), and one binary dimension per foreign-key attribute. The
// value domains come from the table's scan state, so every BuildSpace and
// SpaceCache over one table computes each (attribute, options) domain once
// per table epoch. It reads r under r's epoch fence, so it may run
// concurrently with Append.
func BuildSpace(r *dataframe.Table, t Template, opts SpaceOptions) (*Space, error) {
	opts = opts.normalized()
	c := coreOf(r)
	c.fence.RLock()
	defer c.fence.RUnlock()
	if err := t.Validate(r); err != nil {
		return nil, err
	}
	s := &Space{Template: t, aggDim: 0, attrDim: 1, predBase: 2}
	s.Dims = append(s.Dims,
		Dim{Name: "agg", Card: len(t.Funcs)},
		Dim{Name: "agg_attr", Card: len(t.AggAttrs)},
	)
	for _, attr := range t.PredAttrs {
		pd, err := c.predDim(attr, opts)
		if err != nil {
			return nil, err
		}
		s.appendPredDim(pd)
	}
	s.finish(t.Keys)
	return s, nil
}

// buildPredDim derives the value domain of one predicate attribute (a
// distinct-value scan or a quantile grid). tableCore.predDim caches its
// result in the table's scan state.
func buildPredDim(r *dataframe.Table, attr string, opts SpaceOptions) (predDim, error) {
	col := r.Column(attr)
	pd := predDim{attr: attr}
	switch {
	case col.Kind() == dataframe.KindString:
		pd.isCat = true
		pd.catDomain = col.DistinctStrings(opts.MaxCategories)
	case col.Kind() == dataframe.KindBool:
		pd.isCat = true
		pd.boolDomain = true
	case col.Kind().IsNumeric():
		pd.isNum = true
		pd.grid = quantileGrid(col, opts.NumGridPoints)
	default:
		return predDim{}, fmt.Errorf("query: unsupported predicate column kind %s for %q", col.Kind(), attr)
	}
	return pd, nil
}

// appendPredDim registers one predicate attribute's dimensions on the space.
func (s *Space) appendPredDim(pd predDim) {
	switch {
	case pd.isCat && pd.boolDomain:
		s.Dims = append(s.Dims, Dim{Name: "eq:" + pd.attr, Card: 3}) // false, true, None
	case pd.isCat:
		s.Dims = append(s.Dims, Dim{Name: "eq:" + pd.attr, Card: len(pd.catDomain) + 1})
	default:
		s.Dims = append(s.Dims,
			Dim{Name: "lo:" + pd.attr, Card: len(pd.grid) + 1},
			Dim{Name: "hi:" + pd.attr, Card: len(pd.grid) + 1},
		)
	}
	s.preds = append(s.preds, pd)
}

// finish appends the foreign-key dimensions, completing the space layout.
func (s *Space) finish(keys []string) {
	s.keyBase = len(s.Dims)
	for _, k := range keys {
		s.Dims = append(s.Dims, Dim{Name: "key:" + k, Card: 2})
	}
}

// quantileGrid returns up to n distinct empirical quantiles of a numeric
// column (non-null values): for q = i/(n-1) (q = 1/2 when n is 1), the value
// at rank int(q*(m-1)) of the m values in sort.Float64s order, consecutive
// repeats dropped. The ranks are picked by selection (selectRanks), not a
// full sort. That picks exactly the values the sort would, because values
// the sort's order ties have identical bits, with two exceptions: -0 ties
// +0, and NaNs tie one another. Which of such a tie lands at a rank depends
// on the sort's permutation, so a column holding both zeros or any NaN is
// fully sorted instead.
func quantileGrid(col *dataframe.Column, n int) []float64 {
	vals, tied := gridValues(col)
	if len(vals) == 0 {
		return nil
	}
	ranks := make([]int, n)
	for i := range ranks {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 0.5
		}
		ranks[i] = int(q * float64(len(vals)-1))
	}
	if tied {
		sort.Float64s(vals)
	} else {
		selectRanks(vals, ranks)
	}
	grid := make([]float64, 0, n)
	for _, idx := range ranks {
		v := vals[idx]
		if len(grid) == 0 || grid[len(grid)-1] != v {
			grid = append(grid, v)
		}
	}
	return grid
}

// gridValues copies a numeric column's non-null values as floats and reports
// whether they hold a tie that is not bitwise: both -0 and +0, or a NaN.
func gridValues(col *dataframe.Column) (vals []float64, tied bool) {
	valid := col.ValidData()
	vals = make([]float64, 0, len(valid))
	if col.Kind() != dataframe.KindFloat {
		for i, v := range col.IntData() { // int and time columns
			if valid[i] {
				vals = append(vals, float64(v))
			}
		}
		return vals, false
	}
	var negZero, posZero, nan bool
	for i, v := range col.FloatData() {
		if !valid[i] {
			continue
		}
		switch {
		case v == 0 && math.Signbit(v):
			negZero = true
		case v == 0:
			posZero = true
		case v != v:
			nan = true
		}
		vals = append(vals, v)
	}
	return vals, negZero && posZero || nan
}

// selectSortMax is the sub-range length that selectRanks sorts outright.
const selectSortMax = 32

// selectRanks permutes a so that each of the given ascending ranks holds the
// value a full sort would put there (Hoare's FIND, CACM 1961, for several
// ranks at once). Each step partitions a around a median-of-three pivot and
// goes on only into the parts holding a wanted rank, so the expected cost is
// linear; a range nested too deep for its length is sorted instead, which
// bounds the worst case at O(m log m). a must hold no NaN.
func selectRanks(a []float64, ranks []int) {
	depth := 0
	for m := len(a); m > 0; m >>= 1 {
		depth += 2
	}
	selectIn(a, 0, ranks, depth)
}

// selectIn places the ranks (offsets into the whole slice, off being a[0]'s)
// that fall in a.
func selectIn(a []float64, off int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if len(a) <= selectSortMax {
			insertionSort(a)
			return
		}
		if depth == 0 {
			slices.Sort(a)
			return
		}
		depth--
		p := hoarePartition(a) + 1 // a[:p] <= pivot <= a[p:]
		split := sort.SearchInts(ranks, off+p)
		if split > 0 {
			selectIn(a[:p], off, ranks[:split], depth)
		}
		a, off, ranks = a[p:], off+p, ranks[split:]
	}
}

// hoarePartition partitions a (len > 2) around the median of its first,
// middle and last values and returns j with a[:j+1] <= pivot <= a[j+1:],
// both parts non-empty.
func hoarePartition(a []float64) int {
	lo, mid, hi := 0, len(a)/2, len(a)-1
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	pivot := a[mid]
	i, j := -1, len(a)
	for {
		for i++; a[i] < pivot; i++ {
		}
		for j--; a[j] > pivot; j-- {
		}
		if i >= j {
			return j
		}
		a[i], a[j] = a[j], a[i]
	}
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// NumDims returns the vector length.
func (s *Space) NumDims() int { return len(s.Dims) }

// Size returns the number of queries in the pool as a float64 (pools are
// astronomically large; Example 8's 2^|attr| counts templates, this counts
// queries within one template).
func (s *Space) Size() float64 {
	size := 1.0
	for _, d := range s.Dims {
		size *= float64(d.Card)
	}
	return size
}

// Decode maps a query vector to the query it denotes (Section V.A). Range
// bounds decoded in the wrong order are swapped so every vector is a valid
// query; an all-zero key selection falls back to the full foreign key (a
// GROUP BY needs at least one key to join on).
func (s *Space) Decode(vec []int) (Query, error) {
	if len(vec) != len(s.Dims) {
		return Query{}, fmt.Errorf("query: vector length %d != dims %d", len(vec), len(s.Dims))
	}
	for i, v := range vec {
		if v < 0 || v >= s.Dims[i].Card {
			return Query{}, fmt.Errorf("query: dim %d (%s) value %d out of [0,%d)", i, s.Dims[i].Name, v, s.Dims[i].Card)
		}
	}
	q := Query{
		Agg:     s.Template.Funcs[vec[s.aggDim]],
		AggAttr: s.Template.AggAttrs[vec[s.attrDim]],
	}
	di := s.predBase
	for _, pd := range s.preds {
		if pd.isCat {
			choice := vec[di]
			di++
			card := len(pd.catDomain) + 1
			if pd.boolDomain {
				card = 3
			}
			if choice == card-1 {
				continue // None: no predicate on this attribute
			}
			p := Predicate{Attr: pd.attr, Kind: PredEq}
			if pd.boolDomain {
				p.BoolValue = choice == 1
			} else {
				p.StrValue = pd.catDomain[choice]
			}
			q.Preds = append(q.Preds, p)
			continue
		}
		loChoice, hiChoice := vec[di], vec[di+1]
		di += 2
		p := Predicate{Attr: pd.attr, Kind: PredRange}
		if loChoice < len(pd.grid) {
			p.HasLo, p.Lo = true, pd.grid[loChoice]
		}
		if hiChoice < len(pd.grid) {
			p.HasHi, p.Hi = true, pd.grid[hiChoice]
		}
		if p.HasLo && p.HasHi && p.Lo > p.Hi {
			p.Lo, p.Hi = p.Hi, p.Lo
		}
		if !p.Trivial() {
			q.Preds = append(q.Preds, p)
		}
	}
	for ki, k := range s.Template.Keys {
		if vec[s.keyBase+ki] == 1 {
			q.Keys = append(q.Keys, k)
		}
	}
	if len(q.Keys) == 0 {
		q.Keys = append([]string(nil), s.Template.Keys...)
	}
	return q, nil
}

// RandomVector draws a uniform vector using the provided source. intn must
// behave like (*rand.Rand).Intn.
func (s *Space) RandomVector(intn func(n int) int) []int {
	vec := make([]int, len(s.Dims))
	for i, d := range s.Dims {
		vec[i] = intn(d.Card)
	}
	return vec
}

// Cardinalities returns the per-dimension cardinalities, the shape the HPO
// optimiser needs.
func (s *Space) Cardinalities() []int {
	cards := make([]int, len(s.Dims))
	for i, d := range s.Dims {
		cards[i] = d.Card
	}
	return cards
}

// GridValue exposes the numeric grid of a range-predicate attribute (for
// tests and diagnostics). ok is false when attr has no numeric grid.
func (s *Space) GridValue(attr string) ([]float64, bool) {
	for _, pd := range s.preds {
		if pd.attr == attr && pd.isNum {
			return pd.grid, true
		}
	}
	return nil, false
}

// CatDomain exposes the categorical domain of an equality-predicate
// attribute. ok is false when attr has no categorical domain.
func (s *Space) CatDomain(attr string) ([]string, bool) {
	for _, pd := range s.preds {
		if pd.attr == attr && pd.isCat && !pd.boolDomain {
			return pd.catDomain, true
		}
	}
	return nil, false
}

// LogSize returns log10 of the pool size, convenient for reporting.
func (s *Space) LogSize() float64 { return math.Log10(s.Size()) }
