package query

import (
	"testing"

	"repro/internal/agg"
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
