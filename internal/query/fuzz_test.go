package query

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// fuzzQuery decodes bytes into a well-formed query over largeRandomTable's
// schema: aggregation function, aggregation attribute, GROUP BY key subset,
// and up to two predicates (string/bool equalities — including an operand
// outside the domain — and one- or two-sided float/time/int ranges). Missing
// bytes read as zero, so every input decodes.
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
			}
			pr = Predicate{Attr: attr, Kind: PredRange}
			switch (sel / 6) % 3 {
			case 0:
				pr.HasLo, pr.Lo = true, float64(v1)*scale+shift
			case 1:
				pr.HasHi, pr.Hi = true, float64(v2)*scale+shift
			default:
				pr.HasLo, pr.Lo = true, float64(v1)*scale+shift
				pr.HasHi, pr.Hi = true, float64(v2)*scale+shift
			}
		}
		q.Preds = append(q.Preds, pr)
	}
	return q
}

// FuzzExecuteMatchesOracle requires the executor's single-query path — cold,
// then warm off the retained plan state — to match Query.Execute row for row,
// and AugmentValues to match Query.Augment, for any decoded query. The seed
// corpus covers every aggregation function and predicate shape and runs
// under plain `go test`; `go test -fuzz FuzzExecuteMatchesOracle` explores
// further.
func FuzzExecuteMatchesOracle(f *testing.F) {
	for i := 0; i < 18; i++ {
		b := byte(i)
		f.Add([]byte{b, b, b, b % 3, b, b * 13, b * 29, b + 3, b * 7, 255 - b})
	}
	f.Add([]byte{})
	r := largeRandomTable(300, 17)
	d := largeRandomTable(60, 18)
	f.Fuzz(func(t *testing.T, data []byte) {
		q := fuzzQuery(data)
		want, wantErr := q.Execute(r, "feature")
		ex := NewExecutor(r)
		for _, pass := range []string{"cold", "warm"} {
			got, err := ex.Execute(q, "feature")
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s %s: executor error %v, oracle error %v", pass, q.SQL("r"), err, wantErr)
			}
			if err == nil {
				sameTable(t, pass+" "+q.SQL("r"), got, want)
			}
		}
		if wantErr != nil {
			return
		}
		gotV, gotOK, err := ex.AugmentValues(d, q)
		if err != nil {
			t.Fatalf("%s: %v", q.SQL("r"), err)
		}
		wantV, wantOK := oracleFeature(t, q, d, r)
		sameFeature(t, "augment "+q.SQL("r"), gotV, wantV, gotOK, wantOK)
	})
}

// appendModes are deltaRows' delta shapes, in fuzz-byte order.
var appendModes = []string{"mixed", "nulls", "newgroups", "dictshift", "dictcap"}

// FuzzAppendMatchesOracle drives one executor through a decoded sequence of
// up to four appends — each byte pair picks a deltaRows mode, row seed and
// size — and after every append requires its batch over the delta-advanced
// caches to match Query.Execute over the concatenation of the parts. Sizes 1..130
// cross 64-row words and morsels; a dictcap append always crosses
// MaxDictCardinality, and a dictshift append re-encodes cat's dictionary, so
// both the in-place advances and the full-rebuild drop are checked.
func FuzzAppendMatchesOracle(f *testing.F) {
	for mode := range appendModes {
		m := byte(mode)
		f.Add([]byte{m, 0, m, 63, m, 64})
		f.Add([]byte{0, 6, m, 1, 1, 129})
	}
	f.Add([]byte{})
	const nBase = 200
	qs := deltaQueryPool(f, deltaTable(nBase, 31), 24, 32)
	// cat = 'a0' takes the dictionary code of cat = 'b' once a dictshift
	// append re-encodes cat: a stale code-keyed entry would answer it wrongly.
	for _, v := range []string{"b", "a0"} {
		qs = append(qs, Query{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: v}}})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ex := NewExecutor(deltaTable(nBase, 31), WithMorselRows(64))
		parts := []*dataframe.Table{deltaTable(nBase, 31)}
		check := func(round string) {
			got, err := ex.ExecuteBatch(qs, "feature")
			if err != nil {
				t.Fatalf("%s: %v", round, err)
			}
			ref, err := dataframe.Concat(parts...)
			if err != nil {
				t.Fatalf("%s: %v", round, err)
			}
			want := oracleBatch(t, ref, qs, "feature")
			for i, q := range qs {
				sameTable(t, round+" "+q.SQL("r"), got[i], want[i])
			}
		}
		check("cold")
		for i := 0; i+1 < len(data) && i < 8; i += 2 {
			mode := appendModes[int(data[i])%len(appendModes)]
			size := 1 + int(data[i+1])%130
			if mode == "dictcap" {
				size += dataframe.MaxDictCardinality
			}
			seed := int64(data[i])/int64(len(appendModes))*8 + int64(i)
			if err := ex.Append(deltaRows(size, seed, mode)); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, deltaRows(size, seed, mode))
			check(fmt.Sprintf("append %d (%s, +%d rows)", i/2, mode, size))
		}
	})
}
