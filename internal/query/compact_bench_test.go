package query

import (
	"sync"
	"syscall"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/datagen"
)

// compactBenchPool is the BENCH_10 workload: the BENCH_8 string-predicate
// pool with half the aggregates switched to filtered COUNTs (the paper's
// headline query shape — COUNT WHERE pred GROUP BY key), served from two
// tables holding identical rows: one compact (dictionary codes are the
// storage, no []string survives) and one raw (the PR 8 dict-on-demand
// baseline). Seeds are fixed so snapshots are comparable across commits.
func compactBenchPool(tb testing.TB, nQueries, nRows int) (compact, raw *dataframe.Table, qs []Query) {
	raw, qs = dictBenchPool(nQueries, nRows)
	compact, _ = dictBenchPool(nQueries, nRows)
	if compact.Compact() == 0 {
		tb.Fatal("benchmark table did not compact")
	}
	// Scan-bound aggregates only: filtered COUNTs and numeric reductions.
	// BENCH_8 already covers the string-aggregation mix; BENCH_10 measures
	// the predicate/scan side the code kernels serve.
	numAggs := []agg.Func{agg.Sum, agg.Avg, agg.Max, agg.Std}
	for i := range qs {
		if i%2 == 0 {
			qs[i].Agg, qs[i].AggAttr = agg.Count, "x"
		} else {
			qs[i].Agg, qs[i].AggAttr = numAggs[(i/2)%len(numAggs)], "x"
		}
	}
	return compact, raw, qs
}

// BenchmarkStringHeavyCompact is the BENCH_10 headline: compact storage, a
// cold executor per iteration. String equalities compare the columns' uint16
// codes and filtered COUNTs come straight out of the plan's group counts.
func BenchmarkStringHeavyCompact(b *testing.B) {
	compact, _, qs := compactBenchPool(b, 200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(compact)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkStringHeavyDictBaseline runs the same query mix against the raw
// table through the PR 8 path (strings resident, dictionaries built on
// demand) — the baseline the compact numbers are read against.
func BenchmarkStringHeavyDictBaseline(b *testing.B) {
	_, raw, qs := compactBenchPool(b, 200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(raw)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// rawRematerialized rebuilds a table with []string backings from a compact
// one and builds its dictionaries, reproducing the PR 8 steady state (strings
// AND encodings resident) for a memory comparison over identical rows.
func rawRematerialized(tb testing.TB, t *dataframe.Table) *dataframe.Table {
	var cols []*dataframe.Column
	for _, c := range t.Columns() {
		n := c.Len()
		valid := append([]bool(nil), c.ValidData()...)
		switch c.Kind() {
		case dataframe.KindString:
			strs := make([]string, n)
			for i := 0; i < n; i++ {
				if valid[i] {
					strs[i] = c.Str(i)
				}
			}
			cols = append(cols, dataframe.NewStringColumn(c.Name(), strs, valid))
		case dataframe.KindInt:
			cols = append(cols, dataframe.NewIntColumn(c.Name(), append([]int64(nil), c.IntData()...), valid))
		case dataframe.KindTime:
			cols = append(cols, dataframe.NewTimeColumn(c.Name(), append([]int64(nil), c.IntData()...), valid))
		case dataframe.KindFloat:
			cols = append(cols, dataframe.NewFloatColumn(c.Name(), append([]float64(nil), c.FloatData()...), valid))
		case dataframe.KindBool:
			cols = append(cols, dataframe.NewBoolColumn(c.Name(), append([]bool(nil), c.BoolData()...), valid))
		default:
			tb.Fatalf("unhandled kind %v", c.Kind())
		}
	}
	out := dataframe.MustNewTable(cols...)
	for _, c := range out.Columns() {
		if c.Kind() == dataframe.KindString {
			c.Dict()
		}
	}
	return out
}

// stringHeavyQueries is the filtered-COUNT batch the datagen scenario plants
// its signal for, plus spend aggregates over the same masks.
func stringHeavyQueries() []Query {
	var qs []Query
	for _, ev := range []string{"order", "view", "search", "add"} {
		qs = append(qs,
			Query{Agg: agg.Count, AggAttr: "spend", Keys: []string{"user_id"},
				Preds: []Predicate{
					{Attr: "event", Kind: PredEq, StrValue: ev},
					{Attr: "channel", Kind: PredEq, StrValue: "app"},
				}},
			Query{Agg: agg.Sum, AggAttr: "spend", Keys: []string{"user_id"},
				Preds: []Predicate{{Attr: "event", Kind: PredEq, StrValue: ev}}},
		)
	}
	return qs
}

// BenchmarkStringHeavyMemBytes pins the storage win on the datagen scenario
// at mid scale: bytes/row for the compact relevant table vs the same rows
// rematerialized into the PR 8 raw-plus-encoding layout. The acceptance bar
// is mem_reduction ≥ 2×.
func BenchmarkStringHeavyMemBytes(b *testing.B) {
	d := datagen.StringHeavy(datagen.Options{TrainRows: 20000, LogsPerKey: 20, Seed: 1})
	compact := d.Relevant
	raw := rawRematerialized(b, compact)
	rows := float64(compact.NumRows())
	cBytes, _ := compact.MemBytes()
	rBytes, _ := raw.MemBytes()
	qs := stringHeavyQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(compact)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cBytes)/rows, "bytes/row")
	b.ReportMetric(float64(rBytes)/rows, "raw_bytes/row")
	b.ReportMetric(float64(rBytes)/float64(cBytes), "mem_reduction")
}

// The 10⁷-row table is built once and shared across iterations: the point of
// the benchmark is that the scenario exists at this scale at all (the raw
// layout's string headers alone would add ~80 bytes/row), plus the steady
// query throughput over it.
var (
	stringHeavy10MOnce  sync.Once
	stringHeavy10MTable *dataframe.Table
)

// BenchmarkStringHeavy10M runs the filtered-COUNT batch over the 10⁷-row
// compact string-heavy log and reports resident bytes/row plus the process
// peak RSS. Run with -benchtime=1x: one build, one measured batch.
func BenchmarkStringHeavy10M(b *testing.B) {
	stringHeavy10MOnce.Do(func() {
		d := datagen.StringHeavy(datagen.Options{TrainRows: 250000, LogsPerKey: 40, Seed: 1})
		stringHeavy10MTable = d.Relevant
	})
	tbl := stringHeavy10MTable
	total, _ := tbl.MemBytes()
	qs := stringHeavyQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(tbl)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(tbl.NumRows()), "rows")
	b.ReportMetric(float64(total)/float64(tbl.NumRows()), "bytes/row")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Linux reports Maxrss in KiB.
		b.ReportMetric(float64(ru.Maxrss)/1024, "peak_rss_mb")
	}
}
