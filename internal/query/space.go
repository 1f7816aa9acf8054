package query

import (
	"fmt"
	"math"
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
// column (non-null values).
func quantileGrid(col *dataframe.Column, n int) []float64 {
	vals := make([]float64, 0, col.Len())
	for i := 0; i < col.Len(); i++ {
		if v, ok := col.AsFloat(i); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	grid := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 0.5
		}
		idx := int(q * float64(len(vals)-1))
		v := vals[idx]
		if len(grid) == 0 || grid[len(grid)-1] != v {
			grid = append(grid, v)
		}
	}
	return grid
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
