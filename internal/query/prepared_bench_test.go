package query

import (
	"context"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// warmPassShape is perfbench's serve-tmall shape at engine level: nGroups
// single-query plan groups (each its own WHERE mask) over 3 key sets — {k1},
// {k2} and {k1, k2} — cycling the basic aggregates over a float and an int
// attribute, plus a fixed pool of 4-row request tables whose keys are drawn
// from the relevant table, as a served entity lookup's are.
func warmPassShape(nGroups int) (*dataframe.Table, []Query, []*dataframe.Table) {
	r := largeRandomTable(20000, 211)
	keySets := [][]string{{"k1"}, {"k2"}, {"k1", "k2"}}
	funcs := agg.Basic()
	qs := make([]Query, nGroups)
	for i := range qs {
		var pred Predicate
		if i%2 == 0 {
			pred = Predicate{Attr: "x", Kind: PredRange, HasLo: true, Lo: float64(i*7 - 150)}
		} else {
			pred = Predicate{Attr: "ts", Kind: PredRange, HasHi: true, Hi: float64(40000 + i*1000)}
		}
		qs[i] = Query{
			Agg:     funcs[i%len(funcs)],
			AggAttr: []string{"x", "ts"}[(i/len(funcs))%2],
			Keys:    keySets[i%len(keySets)],
			Preds:   []Predicate{pred},
		}
	}
	k1, k2 := r.Column("k1").IntData(), r.Column("k2").StrData()
	reqs := make([]*dataframe.Table, 16)
	for i := range reqs {
		rk1, rk2 := make([]int64, 4), make([]string, 4)
		for j := range rk1 {
			row := (i*7919 + j*131) % r.NumRows()
			rk1[j], rk2[j] = k1[row], k2[row]
		}
		reqs[i] = dataframe.MustNewTable(
			dataframe.NewIntColumn("k1", rk1, nil),
			dataframe.NewStringColumn("k2", rk2, nil),
		)
	}
	return r, qs, reqs
}

// warmPrepared prepares qs on an inline executor over r and runs one pass,
// so every plan entry and its retained state exist before a caller times or
// counts the warm passes.
func warmPrepared(tb testing.TB, r *dataframe.Table, qs []Query, d *dataframe.Table) *Prepared {
	tb.Helper()
	ex := NewExecutor(r, WithParallelism(1))
	p, err := ex.Prepare(qs)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.AugmentMatrix(context.Background(), d); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkPreparedWarmPass measures one warm served pass: a Prepared of 12
// plan groups over 3 key sets, run inline on 4-row request tables cycled
// from a fixed pool, after one warm-up pass. Every pass joins a request
// table the executor has not just seen, as a served pass does.
func BenchmarkPreparedWarmPass(b *testing.B) {
	r, qs, reqs := warmPassShape(12)
	p := warmPrepared(b, r, qs, reqs[0])
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AugmentMatrix(ctx, reqs[(i+1)%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}
