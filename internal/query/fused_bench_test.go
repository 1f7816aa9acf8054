package query

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// fusedBenchPool builds a 200-query template pool over one relevant table
// with at most 20 distinct WHERE masks — the shape a successive-halving rung
// or TPE batch produces, where agg functions and attributes are swept over a
// small set of cached masks. Seeds are fixed so runs are comparable across
// commits.
func fusedBenchPool(nQueries, nRows int) (*dataframe.Table, *dataframe.Table, []Query) {
	r := largeRandomTable(nRows, 97)
	d := largeRandomTable(nRows/8, 98)
	rng := rand.New(rand.NewSource(99))
	masks := make([][]Predicate, 20)
	for i := range masks {
		switch i % 3 {
		case 0:
			masks[i] = []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: float64(rng.Intn(120) - 60)}}
		case 1:
			masks[i] = []Predicate{{Attr: "ts", Kind: PredRange, HasHi: true, Hi: float64(rng.Intn(90000))}}
		default:
			masks[i] = []Predicate{
				{Attr: "cat", Kind: PredEq, StrValue: []string{"a", "b", "c"}[i%3]},
				{Attr: "x", Kind: PredRange, HasLo: true, HasHi: true, Lo: -80, Hi: float64(rng.Intn(100))},
			}
		}
	}
	attrs := []string{"x", "ts", "cat"}
	funcs := agg.All()
	qs := make([]Query, nQueries)
	for i := range qs {
		qs[i] = Query{
			Agg:     funcs[i%len(funcs)],
			AggAttr: attrs[(i/len(funcs))%len(attrs)],
			Keys:    []string{"k1", "k2"},
			Preds:   masks[i%len(masks)],
		}
	}
	return r, d, qs
}

// BenchmarkAugmentMatrixFused measures the search loop's hot path — execute
// plus scatter onto the training table — on a cold executor each iteration,
// so its throughput is pure scan sharing (plan-group fusion), not
// cross-iteration cache warmth.
func BenchmarkAugmentMatrixFused(b *testing.B) {
	r, d, qs := fusedBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r)
		if _, err := ex.AugmentMatrix(context.Background(), d, qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}
