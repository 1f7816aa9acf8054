package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/agg"
)

// refSQL is the fmt-based renderer Query.SQL replaced, kept as the oracle
// its appends must match byte for byte.
func refSQL(q Query, relName string) string {
	var sb strings.Builder
	keys := strings.Join(q.Keys, ", ")
	fmt.Fprintf(&sb, "SELECT %s, %s(%s) AS feature FROM %s", keys, q.Agg, q.AggAttr, relName)
	if len(q.Preds) > 0 {
		parts := make([]string, len(q.Preds))
		for i, p := range q.Preds {
			parts[i] = refPredString(p)
		}
		fmt.Fprintf(&sb, " WHERE %s", strings.Join(parts, " AND "))
	}
	fmt.Fprintf(&sb, " GROUP BY %s", keys)
	return sb.String()
}

// refPredString is the fmt-based Predicate.String it replaced.
func refPredString(p Predicate) string {
	fb := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch p.Kind {
	case PredEq:
		if p.StrValue != "" {
			return fmt.Sprintf("%s = %q", p.Attr, p.StrValue)
		}
		return fmt.Sprintf("%s = %v", p.Attr, p.BoolValue)
	case PredRange:
		switch {
		case p.HasLo && p.HasHi:
			return fmt.Sprintf("%s BETWEEN %s AND %s", p.Attr, fb(p.Lo), fb(p.Hi))
		case p.HasLo:
			return fmt.Sprintf("%s >= %s", p.Attr, fb(p.Lo))
		case p.HasHi:
			return fmt.Sprintf("%s <= %s", p.Attr, fb(p.Hi))
		default:
			return p.Attr + " IS ANYTHING"
		}
	}
	return "?"
}

// FuzzSQLMatchesReference requires Query.SQL and Predicate.String to render
// exactly the fmt renderer's text: the text keys the evaluator's caches, so
// a byte of difference would split or merge cache entries. The fuzzer drives
// every operand: string operands that need %q escapes (quotes, backslashes,
// control bytes, invalid UTF-8), bool operands, bounds of every float class
// (signed zeros, NaN, infinities, subnormals, exponents), unknown predicate
// kinds and aggregate functions, and empty or repeated keys.
func FuzzSQLMatchesReference(f *testing.F) {
	f.Add("k1\x00k2", int8(agg.Sum), "x", "R", uint8(0), "", false, uint64(0), uint64(0), uint8(3))
	f.Add("k", int8(agg.Avg), "amount", "R", uint8(0), "say \"hi\"\\\n\t\x01\x7f\xff é", true, uint64(0), uint64(0), uint8(0))
	f.Add("user", int8(agg.Count), "flag", "logs", uint8(0), "", true, uint64(0), uint64(0), uint8(2))
	f.Add("user", int8(agg.Max), "flag", "R", uint8(0), "", false, uint64(0), uint64(0), uint8(1))
	f.Add("a\x00b", int8(agg.Median), "t", "R", uint8(1), "", false, math.Float64bits(1e21), math.Float64bits(5e-324), uint8(3))
	f.Add("k", int8(agg.Std), "t", "R", uint8(1), "", false, math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN()), uint8(1))
	f.Add("k", int8(agg.Var), "t", "R", uint8(1), "", false, math.Float64bits(math.Inf(-1)), math.Float64bits(math.Inf(1)), uint8(2))
	f.Add("k", int8(agg.Min), "t", "R", uint8(1), "", false, math.Float64bits(0.1), math.Float64bits(123456789012345678), uint8(3))
	f.Add("", int8(-1), "", "", uint8(7), "x", true, uint64(1), uint64(2), uint8(3))
	f.Add("k", int8(99), "x", "R", uint8(1), "", false, uint64(0), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, keys string, fn int8, attr, rel string, kind uint8, str string, b bool, lo, hi uint64, shape uint8) {
		var ks []string
		if keys != "" {
			ks = strings.Split(keys, "\x00")
		}
		// shape's low two bits pick HasLo/HasHi for range predicates; a
		// second predicate with the bits swapped exercises the AND join.
		p := Predicate{Attr: attr, Kind: PredKind(kind % 3), StrValue: str, BoolValue: b,
			HasLo: shape&1 != 0, HasHi: shape&2 != 0, Lo: math.Float64frombits(lo), Hi: math.Float64frombits(hi)}
		p2 := p
		p2.Kind, p2.HasLo, p2.HasHi, p2.Lo, p2.Hi = PredRange, p.HasHi, p.HasLo, p.Hi, p.Lo
		for _, preds := range [][]Predicate{nil, {p}, {p, p2, p}} {
			q := Query{Agg: agg.Func(fn), AggAttr: attr, Preds: preds, Keys: ks}
			if got, want := q.SQL(rel), refSQL(q, rel); got != want {
				t.Fatalf("SQL renders\n%q\nwant\n%q", got, want)
			}
		}
		if got, want := p.String(), refPredString(p); got != want {
			t.Fatalf("String renders %q, want %q", got, want)
		}
	})
}
