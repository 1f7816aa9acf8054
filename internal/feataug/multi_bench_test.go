package feataug

import (
	"context"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/pipeline"
)

// multiBenchPool builds the 3-table scenario the multi-table benchmarks run
// on: tmall's behaviour log sharded by action into three relevant tables.
func multiBenchPool(b *testing.B) (pipeline.Problem, []RelevantInput) {
	b.Helper()
	d := datagen.Tmall(datagen.Options{TrainRows: 300, LogsPerKey: 8, Seed: 61})
	action := d.Relevant.Column("action")
	shard := func(keep func(string) bool) *RelevantInput {
		t := d.Relevant.Filter(func(i int) bool { return keep(action.Str(i)) })
		return &RelevantInput{Table: t, Keys: d.Keys,
			AggAttrs: []string{"price", "timestamp"}, PredAttrs: []string{"timestamp"}}
	}
	buys := shard(func(a string) bool { return a == "buy" })
	buys.Name = "buys"
	carts := shard(func(a string) bool { return a == "cart" || a == "fav" })
	carts.Name = "carts"
	clicks := shard(func(a string) bool { return a == "click" })
	clicks.Name = "clicks"
	base := pipeline.Problem{
		Train: d.Train, Label: d.Label, Task: d.Task,
		BaseFeatures: d.BaseFeatures, Relevant: d.Relevant, Keys: d.Keys,
	}
	return base, []RelevantInput{*buys, *carts, *clicks}
}

func multiBenchOptions() fitOptions {
	return fitOptions{
		model: ml.KindLR,
		funcs: agg.Basic(),
		cfg: Config{
			Seed: 61, WarmupIters: 12, WarmupTopK: 4, GenIters: 4,
			NumTemplates: 1, QueriesPerTemplate: 2, MaxDepth: 1, TemplateProxyIters: 6,
		},
	}
}

// BenchmarkFitMultiSequential runs the 3-table search one table at a time —
// the sequential schedule the concurrent FitMulti is read against.
func BenchmarkFitMultiSequential(b *testing.B) {
	base, inputs := multiBenchPool(b)
	o := multiBenchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fitMulti(context.Background(), base, inputs, o, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(inputs)*b.N)/b.Elapsed().Seconds(), "tables/s")
}

// BenchmarkFitMultiParallel runs the same searches concurrently on the
// worker pool — the FitMulti default.
func BenchmarkFitMultiParallel(b *testing.B) {
	base, inputs := multiBenchPool(b)
	o := multiBenchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fitMulti(context.Background(), base, inputs, o, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(inputs)*b.N)/b.Elapsed().Seconds(), "tables/s")
}

// BenchmarkFitMultiParallelSpeedup times both schedules on the same pool and
// reports the ratio. The per-table searches are independent, so the speedup
// tracks core count (≈1.0 on a single-CPU runner, where only the executor's
// intra-search batching parallelism is left to win).
func BenchmarkFitMultiParallelSpeedup(b *testing.B) {
	base, inputs := multiBenchPool(b)
	o := multiBenchOptions()
	var sequential, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, _, err := fitMulti(context.Background(), base, inputs, o, 1); err != nil {
			b.Fatal(err)
		}
		sequential += time.Since(t0)
		t1 := time.Now()
		if _, _, err := fitMulti(context.Background(), base, inputs, o, 0); err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(t1)
	}
	if parallel > 0 {
		b.ReportMetric(sequential.Seconds()/parallel.Seconds(), "speedup_parallel_vs_sequential")
	}
}
