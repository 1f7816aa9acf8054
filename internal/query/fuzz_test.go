package query

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// fuzzQuery decodes bytes into a well-formed query over largeRandomTable's
// schema: aggregation function, aggregation attribute, GROUP BY key subset,
// and up to two predicates (string/bool equalities — including an operand
// outside the domain — and one- or two-sided float/time/int ranges, where a
// bound byte of 255 decodes as a NaN bound). Byte 10 can swap the
// aggregation attribute for a withWideCols column beyond ±2^53 ("big" or
// "bigts"), and an odd byte 11 moves the int ranges from k1 to "big", with
// bounds among its values (wideBound). Missing bytes read as zero, so every
// input decodes.
func fuzzQuery(data []byte) Query {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	funcs := agg.All()
	attrs := []string{"x", "cat", "ts", "flag", "k1", "k2"}
	keysets := [][]string{{"k1"}, {"k2"}, {"k1", "k2"}}
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h", "zz"}
	q := Query{
		Agg:     funcs[int(at(0))%len(funcs)],
		AggAttr: attrs[int(at(1))%len(attrs)],
		Keys:    keysets[int(at(2))%len(keysets)],
	}
	if wide := []string{"", "big", "bigts"}[int(at(10))%3]; wide != "" {
		q.AggAttr = wide
	}
	for p := 0; p < int(at(3))%3; p++ {
		sel, v1, v2 := at(4+3*p), at(5+3*p), at(6+3*p)
		var pr Predicate
		switch sel % 6 {
		case 0:
			pr = Predicate{Attr: "cat", Kind: PredEq, StrValue: cats[int(v1)%len(cats)]}
		case 1:
			pr = Predicate{Attr: "k2", Kind: PredEq, StrValue: cats[int(v1)%len(cats)]}
		case 2:
			pr = Predicate{Attr: "flag", Kind: PredEq, BoolValue: v1&1 == 1}
		default:
			// Range bounds scaled to each column's value spread.
			attr, scale, shift := "x", 2.0, -256.0
			switch sel % 6 {
			case 4:
				attr, scale, shift = "ts", 400, 0
			case 5:
				attr, scale, shift = "k1", 0.1, -2
				if at(11)%2 == 1 {
					attr, scale, shift = "big", 1<<32, float64(wideBase)
				}
			}
			bound := func(v byte) float64 {
				if v == 255 {
					return math.NaN()
				}
				return float64(v)*scale + shift
			}
			pr = Predicate{Attr: attr, Kind: PredRange}
			switch (sel / 6) % 3 {
			case 0:
				pr.HasLo, pr.Lo = true, bound(v1)
			case 1:
				pr.HasHi, pr.Hi = true, bound(v2)
			default:
				pr.HasLo, pr.Lo = true, bound(v1)
				pr.HasHi, pr.Hi = true, bound(v2)
			}
		}
		q.Preds = append(q.Preds, pr)
	}
	return q
}

// FuzzExecuteMatchesOracle requires the executor's single-query path, run
// over the relevant table itself (checkGroups) — cold, then warm off the
// retained plan state — and onto a separate training table to match
// Query.Augment, and to fail exactly where Query.Execute fails, for any
// decoded query. The seed corpus covers every aggregation function and
// predicate shape and runs under plain `go test`; `go test -fuzz
// FuzzExecuteMatchesOracle` explores further.
func FuzzExecuteMatchesOracle(f *testing.F) {
	for i := 0; i < 18; i++ {
		b := byte(i)
		f.Add([]byte{b, b, b, b % 3, b, b * 13, b * 29, b + 3, b * 7, 255 - b})
	}
	f.Add([]byte{})
	// COUNT(x) ... WHERE a >= NaN GROUP BY k1, on the float x (sel 3), the
	// time ts (sel 4) and the int k1 (sel 5); then <= NaN and BETWEEN with
	// one NaN bound on x.
	for sel := byte(3); sel <= 5; sel++ {
		f.Add([]byte{byte(agg.Count), 0, 0, 1, sel, 255, 0})
	}
	f.Add([]byte{byte(agg.Count), 0, 0, 1, 9, 0, 255})
	f.Add([]byte{byte(agg.Sum), 0, 0, 1, 15, 255, 200})
	// SUM / AVG / MIN / MAX / STD / MEDIAN over the int and the time column
	// beyond ±2^53, unfiltered and under "big" ranges the probe rejects
	// (>= and BETWEEN bounds among its values).
	for _, fn := range []agg.Func{agg.Sum, agg.Avg, agg.Min, agg.Max, agg.Std, agg.Median} {
		for wide := byte(1); wide <= 2; wide++ {
			f.Add([]byte{byte(fn), 0, 0, 0, 0, 0, 0, 0, 0, 0, wide})
			f.Add([]byte{byte(fn), 0, 0, 1, 5, 100, 0, 0, 0, 0, wide, 1})
			f.Add([]byte{byte(fn), 0, 2, 1, 17, 10, 200, 0, 0, 0, wide, 1})
		}
	}
	r := withWideCols(largeRandomTable(300, 17), 19)
	d := largeRandomTable(60, 18)
	f.Fuzz(func(t *testing.T, data []byte) {
		q := fuzzQuery(data)
		qs := []Query{q}
		_, wantErr := q.Execute(r, "feature")
		ex := NewExecutor(r)
		if wantErr != nil {
			for _, pass := range []string{"cold", "warm"} {
				if _, err := ex.AugmentMatrix(context.Background(), r, qs); err == nil {
					t.Fatalf("%s %s: oracle error %v, executor none", pass, q.SQL("r"), wantErr)
				}
			}
			return
		}
		checkGroups(t, "cold", ex, qs, r)
		checkGroups(t, "warm", ex, qs, r)
		m, err := ex.AugmentMatrix(context.Background(), d, qs)
		if err != nil {
			t.Fatalf("%s: %v", q.SQL("r"), err)
		}
		gotV, gotOK := m.Col(0)
		wantV, wantOK := oracleFeature(t, q, d, r)
		sameFeature(t, "augment "+q.SQL("r"), gotV, wantV, gotOK, wantOK)
	})
}

// appendModes are deltaRows' delta shapes, in fuzz-byte order.
var appendModes = []string{"mixed", "nulls", "newgroups", "dictshift", "dictcap", "wide"}

// FuzzAppendMatchesOracle drives one executor through a decoded sequence of
// up to four appends — each byte pair picks a deltaRows mode, row seed and
// size — and after every append requires its batch over the delta-advanced
// caches, joined onto the grown relevant table itself (checkGroups), and a
// pass of one Prepared of the same batch onto a separate training table, held
// across the whole sequence, to match Query.Augment over the concatenation of
// the parts. Sizes 1..130 cross 64-row words and morsels; a
// dictcap append always crosses MaxDictCardinality, and a dictshift append
// adds a value inside cat's sorted domain under the cached entries, for
// one-shot batches and held plan groups. A wide append moves lvl and ts
// beyond ±2^53, under the pool's wideQueries as well: their aggregates then
// convert rounding values in place, and lvl's ranges leave the integer
// kernel for the float64(v) fallback.
func FuzzAppendMatchesOracle(f *testing.F) {
	for mode := range appendModes {
		m := byte(mode)
		f.Add([]byte{m, 0, m, 63, m, 64})
		f.Add([]byte{0, 6, m, 1, 1, 129})
	}
	f.Add([]byte{})
	wide := byte(len(appendModes) - 1)
	f.Add([]byte{0, 20, wide, 1, wide, 70})
	const nBase = 200
	qs := append(preparedPool(f, deltaTable(nBase, 31), 24, 32), wideQueries("lvl", "ts")...)
	d := preparedTrain()
	f.Fuzz(func(t *testing.T, data []byte) {
		ex := NewExecutor(deltaTable(nBase, 31), withMorselRows(64))
		parts := []*dataframe.Table{deltaTable(nBase, 31)}
		prep, err := ex.Prepare(qs)
		if err != nil {
			t.Fatal(err)
		}
		check := func(round string) {
			checkPrepared(t, round+" prepared", prep, qs, d, parts)
			ref, err := dataframe.Concat(parts...)
			if err != nil {
				t.Fatalf("%s: %v", round, err)
			}
			checkGroups(t, round, ex, qs, ref)
		}
		check("cold")
		for i := 0; i+1 < len(data) && i < 8; i += 2 {
			mode := appendModes[int(data[i])%len(appendModes)]
			size := 1 + int(data[i+1])%130
			if mode == "dictcap" {
				size += dataframe.MaxDictCardinality
			}
			seed := int64(data[i])/int64(len(appendModes))*8 + int64(i)
			if _, _, err := Append(ex.Table(), deltaRows(size, seed, mode)); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, deltaRows(size, seed, mode))
			check(fmt.Sprintf("append %d (%s, +%d rows)", i/2, mode, size))
		}
	})
}
