package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section VII) at laptop scale. Each benchmark runs the full
// experiment once per iteration and reports the headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` prints the reproduction's
// shape next to the timing:
//
//	BenchmarkTable3Overall    — FeatAug-minus-Featuretools test-metric gap
//	BenchmarkFig5QTIOpts      — QTI speed-up of Opt1+Opt2 over no-opts
//	...
//
// Budgets are deliberately small; use cmd/feataug -paper for full-scale runs.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/query"
)

// benchConfig is the shared laptop-scale budget.
func benchConfig() experiments.Config {
	return experiments.Config{
		TrainRows:             250,
		LogsPerKey:            6,
		Reps:                  1,
		Seed:                  17,
		NumFeatures:           4,
		NumTemplates:          2,
		QueriesPerTemplate:    2,
		Funcs:                 agg.Basic(),
		WarmupIters:           12,
		WarmupTopK:            4,
		GenIters:              4,
		TemplateProxyIters:    6,
		BeamWidth:             1,
		MaxDepth:              2,
		Models:                []ml.Kind{ml.KindLR},
		MaxSelectorCandidates: 8,
	}
}

// BenchmarkTable1Datasets regenerates Table I / Table IV (dataset stats).
func BenchmarkTable1Datasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Templates regenerates Table II / Table V (template stats).
func BenchmarkTable2Templates(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Overall regenerates Table III (one-to-many comparison) on
// one dataset and reports the FeatAug − FT test-metric gap; the paper's
// qualitative claim is that this gap is positive.
func BenchmarkTable3Overall(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"tmall"}
	var gap float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gap = methodGap(cells, experiments.MethodFeatAug, experiments.MethodFT)
	}
	b.ReportMetric(gap, "auc_gap_feataug_vs_ft")
}

// BenchmarkTable6OneToOne regenerates Table VI on the covtype dataset with
// the LR model, the paper's clearest single-table effect (FeatAug 0.3084 vs
// FT 0.1681 in the original): predicate-aware queries act as feature
// interactions that a linear model cannot form on its own.
func BenchmarkTable6OneToOne(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"covtype"}
	cfg.NumTemplates = 4
	cfg.QueriesPerTemplate = 2
	cfg.NumFeatures = 8
	cfg.WarmupIters = 25
	cfg.GenIters = 8
	var gap float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunTable6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gap = lrGap(cells, experiments.MethodFeatAug, experiments.MethodFT)
	}
	b.ReportMetric(gap, "f1_gap_feataug_vs_ft_lr")
}

// lrGap is methodGap restricted to the LR model's cells.
func lrGap(cells []experiments.Cell, methodA, methodB string) float64 {
	var a, bm float64
	for _, c := range cells {
		if c.Model != ml.KindLR {
			continue
		}
		switch c.Method {
		case methodA:
			a = c.Metric
		case methodB:
			bm = c.Metric
		}
	}
	return a - bm
}

// BenchmarkTable7Ablation regenerates Table VII (NoQTI / NoWU / Full) and
// reports the Full − NoQTI gap (the paper's dominant ablation effect).
func BenchmarkTable7Ablation(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"instacart"}
	var gap float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunTable7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gap = methodGap(cells, "FeatAug(Full)", "FeatAug(NoQTI)")
	}
	b.ReportMetric(gap, "auc_gap_full_vs_noqti")
}

// BenchmarkTable8Proxies regenerates Table VIII (SC / MI / LR proxies).
func BenchmarkTable8Proxies(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"student"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5QTIOpts regenerates Figure 5 and reports the QTI wall-time
// ratio of the unoptimised variant over the fully optimised one (the paper
// reports 1.4×–2.8× for Opt2 alone and >3× overall at full scale).
func BenchmarkFig5QTIOpts(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"tmall"}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var slow, fast float64
		for _, r := range rows {
			switch r.Variant {
			case "QTI w/o Opt1,2":
				slow = r.Seconds
			case "QTI with All Opts":
				fast = r.Seconds
			}
		}
		if fast > 0 {
			ratio = slow / fast
		}
	}
	b.ReportMetric(ratio, "qti_speedup_allopts")
}

// BenchmarkFig6Templates regenerates Figure 6 (metric vs #templates).
func BenchmarkFig6Templates(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"tmall"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Columns regenerates Figure 7 (running time vs #cols in R).
func BenchmarkFig7Columns(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8TrainRows regenerates Figure 8 (running time vs #rows in D)
// and reports the total-time ratio between the largest and smallest sweep
// points (the paper's claim: roughly linear growth).
func BenchmarkFig8TrainRows(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"merchant"}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(rows); n > 1 && rows[0].Total() > 0 {
			ratio = rows[n-1].Total() / rows[0].Total()
		}
	}
	b.ReportMetric(ratio, "time_ratio_4x_rows")
}

// BenchmarkFig9RelevantRows regenerates Figure 9 (running time vs #rows in
// R).
func BenchmarkFig9RelevantRows(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"student"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQueryPool builds one relevant table plus a pool of candidate queries
// the way every search procedure produces them: random draws from one
// template's discrete space, so group-by keys repeat and predicates are
// heavily reused across queries.
func benchQueryPool(b *testing.B, numQueries int) (*Table, []query.Query) {
	b.Helper()
	d := datagen.Tmall(datagen.Options{TrainRows: 400, LogsPerKey: 12, Seed: 3})
	tpl := query.Template{
		Funcs:     agg.All(),
		AggAttrs:  d.AggAttrs,
		PredAttrs: d.PredAttrs,
		Keys:      d.Keys,
	}
	s, err := query.BuildSpace(d.Relevant, tpl, query.SpaceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	qs := make([]query.Query, numQueries)
	for i := range qs {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	return d.Relevant, qs
}

// BenchmarkExecutePerQuery is the pre-executor hot path: every candidate
// query regroups the relevant table from scratch.
func BenchmarkExecutePerQuery(b *testing.B) {
	r, qs := benchQueryPool(b, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := q.Execute(r, "feature"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkExecutorAugmentMatrix is the executor path over the same pool,
// joined onto the relevant table itself so every group is extracted. The
// executor is rebuilt every iteration, so each measured batch starts with
// cold caches; the speedup comes from intra-batch sharing of group indexes
// and predicate bitmaps plus the worker pool.
func BenchmarkExecutorAugmentMatrix(b *testing.B) {
	r, qs := benchQueryPool(b, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := query.NewExecutor(r)
		if _, err := ex.AugmentMatrix(context.Background(), r, qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkExecutorSpeedup times both paths on one batch of ≥100 queries
// against one relevant table and reports the throughput ratio; the
// acceptance bar for this subsystem is ≥2×. The executor also joins every
// feature onto the table's rows, work the per-query path skips, so the ratio
// understates the sharing.
func BenchmarkExecutorSpeedup(b *testing.B) {
	r, qs := benchQueryPool(b, 120)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for _, q := range qs {
			if _, err := q.Execute(r, "feature"); err != nil {
				b.Fatal(err)
			}
		}
		perQuery := time.Since(t0)
		ex := query.NewExecutor(r)
		t1 := time.Now()
		if _, err := ex.AugmentMatrix(context.Background(), r, qs); err != nil {
			b.Fatal(err)
		}
		batch := time.Since(t1)
		if batch > 0 {
			ratio = perQuery.Seconds() / batch.Seconds()
		}
	}
	b.ReportMetric(ratio, "speedup_batch_vs_perquery")
}

// methodGap extracts metric(methodA) − metric(methodB) from a cell list.
func methodGap(cells []experiments.Cell, methodA, methodB string) float64 {
	var a, bm float64
	for _, c := range cells {
		switch c.Method {
		case methodA:
			a = c.Metric
		case methodB:
			bm = c.Metric
		}
	}
	return a - bm
}
