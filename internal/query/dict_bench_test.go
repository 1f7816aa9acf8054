package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// dictBenchPool is the string-predicate-heavy workload: categorical columns
// at cardinality 8 / 50 / 300, every WHERE mask carrying at least one string
// equality, string group keys (single and composite), and an agg mix of order
// statistics over strings plus Sum/Avg over floats — the shape where
// dictionary codes replace the most string hashing and comparing. Seeds are
// fixed so runs are comparable across commits.
func dictBenchPool(nQueries, nRows int) (*dataframe.Table, []Query) {
	rng := rand.New(rand.NewSource(201))
	k1 := make([]int64, nRows)
	k2 := make([]string, nRows)
	x := make([]float64, nRows)
	cat8 := make([]string, nRows)
	cat50 := make([]string, nRows)
	cat300 := make([]string, nRows)
	for i := 0; i < nRows; i++ {
		k1[i] = int64(rng.Intn(40))
		k2[i] = string(rune('a' + rng.Intn(3)))
		x[i] = rng.NormFloat64() * 100
		cat8[i] = fmt.Sprintf("c%d", rng.Intn(8))
		cat50[i] = fmt.Sprintf("m%02d", rng.Intn(50))
		cat300[i] = fmt.Sprintf("w%03d", rng.Intn(300))
	}
	r := dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("x", x, nil),
		dataframe.NewStringColumn("cat8", cat8, nil),
		dataframe.NewStringColumn("cat50", cat50, nil),
		dataframe.NewStringColumn("cat300", cat300, nil),
	)
	masks := make([][]Predicate, 24)
	for i := range masks {
		switch i % 3 {
		case 0:
			masks[i] = []Predicate{{Attr: "cat8", Kind: PredEq, StrValue: fmt.Sprintf("c%d", rng.Intn(8))}}
		case 1:
			masks[i] = []Predicate{{Attr: "cat50", Kind: PredEq, StrValue: fmt.Sprintf("m%02d", rng.Intn(50))}}
		default:
			masks[i] = []Predicate{
				{Attr: "cat300", Kind: PredEq, StrValue: fmt.Sprintf("w%03d", rng.Intn(300))},
				{Attr: "cat8", Kind: PredEq, StrValue: fmt.Sprintf("c%d", rng.Intn(8))},
			}
		}
	}
	keysets := [][]string{{"k2"}, {"cat8"}, {"k2", "cat8"}, {"k2", "cat50"}}
	strAggs := []agg.Func{agg.Median, agg.Mode, agg.CountDistinct, agg.Entropy}
	numAggs := []agg.Func{agg.Sum, agg.Avg, agg.Max, agg.Std}
	qs := make([]Query, nQueries)
	for i := range qs {
		q := Query{Keys: keysets[i%len(keysets)], Preds: masks[i%len(masks)]}
		if i%2 == 0 {
			q.Agg, q.AggAttr = strAggs[(i/2)%len(strAggs)], "cat50"
		} else {
			q.Agg, q.AggAttr = numAggs[(i/2)%len(numAggs)], "x"
		}
		qs[i] = q
	}
	return r, qs
}

// BenchmarkStringPredHeavyDict measures the dictionary-encoded hot path on a
// cold executor each iteration, joined onto the relevant table itself: every
// string equality resolves through the branch-free code kernels.
func BenchmarkStringPredHeavyDict(b *testing.B) {
	r, qs := dictBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r)
		if _, err := ex.AugmentMatrix(context.Background(), r, qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}
