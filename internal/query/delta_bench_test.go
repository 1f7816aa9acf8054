package query

import (
	"context"
	"testing"

	"repro/internal/agg"
	"repro/internal/datagen"
)

// The append-then-query workload: a clickstream relevant table of ≥200k rows
// absorbing 512-row appends (well inside one 4096-row morsel), each followed
// by a warm batch of streaming-friendly per-user aggregates plus a couple of
// sorted ones, joined onto the ~10k-user training table. The executor
// advances its caches over the 512 new rows. perfbench's ingest-clickstream
// workload measures the same shape end to end, behind loopback HTTP.
const deltaBenchAppendRows = 512

func deltaBenchStream() *datagen.Clickstream {
	// ~10k users x ~21 events ≈ 215k relevant rows.
	return datagen.NewClickstream(datagen.Options{TrainRows: 10000, LogsPerKey: 20, Seed: 7})
}

func deltaBenchQueries() []Query {
	events := []string{"view", "click", "add", "buy"}
	pages := []string{"home", "search", "detail", "checkout"}
	funcs := []agg.Func{agg.Sum, agg.Avg, agg.Count, agg.Min, agg.Max, agg.Std}
	var qs []Query
	for i := 0; i < 24; i++ {
		q := Query{Keys: []string{"user_id"}, Agg: funcs[i%len(funcs)], AggAttr: "dwell"}
		switch i % 4 {
		case 0:
			q.Preds = []Predicate{{Attr: "event", Kind: PredEq, StrValue: events[i/4%len(events)]}}
		case 1:
			q.Preds = []Predicate{
				{Attr: "page", Kind: PredEq, StrValue: pages[i/4%len(pages)]},
				{Attr: "ts", Kind: PredRange, HasLo: true, Lo: 50000},
			}
		case 2:
			q.AggAttr = "ts"
		}
		qs = append(qs, q)
	}
	// Sorted-run aggregates: the delta path re-sorts only dirty groups.
	qs = append(qs,
		Query{Keys: []string{"user_id"}, Agg: agg.Median, AggAttr: "dwell"},
		Query{Keys: []string{"user_id"}, Agg: agg.Median, AggAttr: "ts",
			Preds: []Predicate{{Attr: "event", Kind: PredEq, StrValue: "buy"}}},
	)
	return qs
}

// BenchmarkAppendThenQueryDelta drives one executor through the stream: per
// iteration one 512-row append then the full warm query batch, with caches
// advanced over the appended rows only.
func BenchmarkAppendThenQueryDelta(b *testing.B) {
	cs := deltaBenchStream()
	qs := deltaBenchQueries()
	ex := NewExecutor(cs.Relevant)
	if _, err := ex.AugmentMatrix(context.Background(), cs.Train, qs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := cs.Batch(i, deltaBenchAppendRows)
		b.StartTimer()
		if _, _, err := Append(ex.Table(), batch); err != nil {
			b.Fatal(err)
		}
		if _, err := ex.AugmentMatrix(context.Background(), cs.Train, qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
}
