package query

import (
	"fmt"
	"strings"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// Query is one predicate-aware SQL query from a template's pool:
//
//	SELECT k, agg(a) AS feature FROM R
//	WHERE pred_1 AND ... AND pred_w
//	GROUP BY k
type Query struct {
	Agg     agg.Func    `json:"agg"`
	AggAttr string      `json:"agg_attr"`
	Preds   []Predicate `json:"preds,omitempty"`
	Keys    []string    `json:"keys"`
}

// SQL renders the query as SQL text (for logs, docs and debugging). The text
// also keys the evaluator's caches, so it is appended into one buffer, with
// no formatting machinery.
func (q Query) SQL(relName string) string {
	keys := strings.Join(q.Keys, ", ")
	b := make([]byte, 0, 2*len(keys)+len(q.AggAttr)+len(relName)+48+32*len(q.Preds))
	b = append(append(append(append(b, "SELECT "...), keys...), ", "...), q.Agg.String()...)
	b = append(append(append(append(b, '('), q.AggAttr...), ") AS feature FROM "...), relName...)
	for i, p := range q.Preds {
		if i == 0 {
			b = append(b, " WHERE "...)
		} else {
			b = append(b, " AND "...)
		}
		b = p.appendSQL(b)
	}
	return string(append(append(b, " GROUP BY "...), keys...))
}

// Name returns a short deterministic identifier for the feature the query
// produces, safe to use as a column name. Every predicate contributes its
// operator (eq/ge/le/between) alongside the sanitised operand, so queries
// that differ only in comparison direction — e.g. x >= 5 versus x <= 5 —
// never collide.
func (q Query) Name() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s_%s", strings.ToLower(q.Agg.String()), q.AggAttr)
	for _, p := range q.Preds {
		sb.WriteByte('_')
		sb.WriteString(p.nameToken())
	}
	return sb.String()
}

// nameToken renders the predicate as attr_op_value with every component
// sanitised, the column-name-safe counterpart of String. String operands are
// prefixed 's' and boolean operands 'b', so an empty-string category can
// never collide with a boolean (or a literal "false") on the same attribute.
func (p Predicate) nameToken() string {
	attr := sanitize(p.Attr)
	switch p.Kind {
	case PredEq:
		if p.StrValue != "" {
			return attr + "_eq_s" + sanitize(p.StrValue)
		}
		if p.BoolValue {
			return attr + "_eq_btrue"
		}
		// Both a bool-false operand and an empty-string category land here;
		// the two cannot coexist on one attribute (a column has one kind).
		return attr + "_eq_bfalse"
	case PredRange:
		switch {
		case p.HasLo && p.HasHi:
			return attr + "_between_" + sanitize(fmtBound(p.Lo)) + "_" + sanitize(fmtBound(p.Hi))
		case p.HasLo:
			return attr + "_ge_" + sanitize(fmtBound(p.Lo))
		case p.HasHi:
			return attr + "_le_" + sanitize(fmtBound(p.Hi))
		}
	}
	return attr
}

// sanitize keeps alphanumerics, maps separators to underscores, and encodes
// a numeric sign as 'n' and a decimal point as 'p', so that e.g. -5, 5 and
// 1.5 / 15 all stay distinct ('_' is reserved for the component separator).
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r == '-':
			sb.WriteByte('n')
		case r == '.':
			sb.WriteByte('p')
		case r == ' ', r == '=':
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Execute evaluates the query against the relevant table r and returns the
// result table q(R): one row per group with the key columns plus a float
// column named featureName.
func (q Query) Execute(r *dataframe.Table, featureName string) (*dataframe.Table, error) {
	if len(q.Keys) == 0 {
		return nil, fmt.Errorf("query: execute with no group-by keys")
	}
	aggCol := r.Column(q.AggAttr)
	if aggCol == nil {
		return nil, fmt.Errorf("query: no aggregation column %q", q.AggAttr)
	}
	mask := make([]bool, r.NumRows())
	for i := range mask {
		mask[i] = true
	}
	for _, p := range q.Preds {
		if err := p.Eval(r, mask); err != nil {
			return nil, err
		}
	}
	keyCols, err := resolve(r, q.Keys)
	if err != nil {
		return nil, err
	}

	// Group the matching rows by composite key.
	type group struct {
		repr int // representative row for key output
		rows []int
	}
	var order []string
	groups := map[string]*group{}
	for i := 0; i < r.NumRows(); i++ {
		if !mask[i] {
			continue
		}
		k := r.RowKey(i, keyCols)
		g, ok := groups[k]
		if !ok {
			g = &group{repr: i}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, i)
	}

	repr := make([]int, len(order))
	vals := make([]float64, len(order))
	valid := make([]bool, len(order))
	useString := aggCol.Kind() == dataframe.KindString
	if useString && !q.Agg.SupportsStrings() {
		// A numeric aggregate over a categorical attribute is undefined;
		// the result is an all-NULL feature (the optimiser learns to avoid
		// these regions of the pool).
		for gi, k := range order {
			repr[gi] = groups[k].repr
		}
	} else {
		var fbuf []float64
		var sbuf []string
		for gi, k := range order {
			g := groups[k]
			repr[gi] = g.repr
			if useString {
				sbuf = sbuf[:0]
				for _, row := range g.rows {
					if !aggCol.IsNull(row) {
						sbuf = append(sbuf, aggCol.Str(row))
					}
				}
				vals[gi], valid[gi] = q.Agg.StringApply(sbuf, len(g.rows))
			} else {
				fbuf = fbuf[:0]
				for _, row := range g.rows {
					if v, ok := aggCol.AsFloat(row); ok {
						fbuf = append(fbuf, v)
					}
				}
				vals[gi], valid[gi] = q.Agg.Apply(fbuf, len(g.rows))
			}
		}
	}

	out := dataframe.MustNewTable()
	for _, kc := range keyCols {
		if err := out.AddColumn(kc.Take(repr)); err != nil {
			return nil, err
		}
	}
	if featureName == "" {
		featureName = "feature"
	}
	if err := out.AddColumn(dataframe.NewFloatColumn(featureName, vals, valid)); err != nil {
		return nil, err
	}
	return out, nil
}

// Augment executes the query against r and left-joins the feature onto the
// training table d (Definition 3), returning the augmented table D_q. The
// feature column is named featureName.
func (q Query) Augment(d, r *dataframe.Table, featureName string) (*dataframe.Table, error) {
	res, err := q.Execute(r, featureName)
	if err != nil {
		return nil, err
	}
	for _, k := range q.Keys {
		if !d.HasColumn(k) {
			return nil, fmt.Errorf("query: training table has no join key %q", k)
		}
	}
	return d.LeftJoin(res, q.Keys, q.Keys)
}

func resolve(t *dataframe.Table, names []string) ([]*dataframe.Column, error) {
	cols := make([]*dataframe.Column, len(names))
	for i, n := range names {
		c := t.Column(n)
		if c == nil {
			return nil, fmt.Errorf("query: no column %q", n)
		}
		cols[i] = c
	}
	return cols, nil
}
