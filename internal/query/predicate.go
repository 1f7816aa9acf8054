package query

import (
	"fmt"
	"strconv"

	"repro/internal/dataframe"
)

// PredKind distinguishes equality predicates (categorical / boolean
// attributes) from range predicates (numeric / datetime attributes), matching
// Definition 2.
type PredKind int

// Predicate kinds.
const (
	PredEq PredKind = iota
	PredRange
)

// Predicate is one conjunct of a WHERE clause. For PredEq exactly one of
// StrValue/BoolValue is meaningful depending on the column kind. For
// PredRange, HasLo/HasHi select between two-sided and one-sided ranges
// (Definition 2 explicitly includes one-sided ranges); bounds are inclusive.
//
// The JSON form (used by serialised feature plans) spells the kind as
// "eq"/"range" and omits zero-valued fields; every omitted field decodes back
// to its zero value, so the round-trip is exact.
type Predicate struct {
	Attr      string   `json:"attr"`
	Kind      PredKind `json:"kind"`
	StrValue  string   `json:"str,omitempty"`
	BoolValue bool     `json:"bool,omitempty"`
	HasLo     bool     `json:"has_lo,omitempty"`
	HasHi     bool     `json:"has_hi,omitempty"`
	Lo        float64  `json:"lo,omitempty"`
	Hi        float64  `json:"hi,omitempty"`
}

// String renders the predicate in SQL syntax.
func (p Predicate) String() string { return string(p.appendSQL(nil)) }

// appendSQL appends String's text to b: a string operand quoted as %q
// quotes it, a bool operand as true/false, a range bound by fmtBound.
func (p Predicate) appendSQL(b []byte) []byte {
	switch p.Kind {
	case PredEq:
		b = append(append(b, p.Attr...), " = "...)
		if p.StrValue != "" {
			return strconv.AppendQuote(b, p.StrValue)
		}
		return strconv.AppendBool(b, p.BoolValue)
	case PredRange:
		b = append(b, p.Attr...)
		switch {
		case p.HasLo && p.HasHi:
			b = appendBound(append(b, " BETWEEN "...), p.Lo)
			return appendBound(append(b, " AND "...), p.Hi)
		case p.HasLo:
			return appendBound(append(b, " >= "...), p.Lo)
		case p.HasHi:
			return appendBound(append(b, " <= "...), p.Hi)
		}
		return append(b, " IS ANYTHING"...)
	}
	return append(b, '?')
}

// fmtBound renders a range bound in the shortest form that parses back to
// the same float64, so distinct bounds always render distinct SQL (the text
// keys the evaluator's caches and the generator's dedup).
func fmtBound(v float64) string { return string(appendBound(nil, v)) }

// appendBound appends fmtBound's text of v to b.
func appendBound(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// Trivial reports whether the predicate filters nothing (a range with no
// bounds). Trivial predicates are dropped from queries.
func (p Predicate) Trivial() bool {
	return p.Kind == PredRange && !p.HasLo && !p.HasHi
}

// Eval builds the row mask of the predicate over table r. Rows with NULL in
// the predicate attribute never match (SQL three-valued logic collapses to
// false in a WHERE clause).
func (p Predicate) Eval(r *dataframe.Table, mask []bool) error {
	col := r.Column(p.Attr)
	if col == nil {
		return fmt.Errorf("query: predicate on missing column %q", p.Attr)
	}
	n := r.NumRows()
	if len(mask) != n {
		return fmt.Errorf("query: mask length %d != rows %d", len(mask), n)
	}
	switch p.Kind {
	case PredEq:
		switch col.Kind() {
		case dataframe.KindString:
			for i := 0; i < n; i++ {
				if mask[i] {
					mask[i] = !col.IsNull(i) && col.Str(i) == p.StrValue
				}
			}
		case dataframe.KindBool:
			for i := 0; i < n; i++ {
				if mask[i] {
					mask[i] = !col.IsNull(i) && col.Bool(i) == p.BoolValue
				}
			}
		default:
			return fmt.Errorf("query: equality predicate on %s column %q", col.Kind(), p.Attr)
		}
	case PredRange:
		if !col.Kind().IsNumeric() {
			return fmt.Errorf("query: range predicate on %s column %q", col.Kind(), p.Attr)
		}
		for i := 0; i < n; i++ {
			if !mask[i] {
				continue
			}
			v, ok := col.AsFloat(i)
			if !ok {
				mask[i] = false
				continue
			}
			if p.HasLo && v < p.Lo {
				mask[i] = false
				continue
			}
			if p.HasHi && v > p.Hi {
				mask[i] = false
			}
		}
	default:
		return fmt.Errorf("query: unknown predicate kind %d", p.Kind)
	}
	return nil
}
