package repro

// Extra ablation benches beyond the paper's own tables, covering the design
// choices DESIGN.md flags: the TPE good/bad quantile γ, the beam width β of
// query template identification, TPE vs random search inside query
// generation, and micro-benchmarks of the hot substrate paths (query
// execution, group-by, TPE suggestion).

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/feataug"
	"repro/internal/hpo"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

func benchProblem(b *testing.B) pipeline.Problem {
	b.Helper()
	d := datagen.Tmall(datagen.Options{TrainRows: 250, LogsPerKey: 6, Seed: 17})
	return pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs[:3],
		BaseFeatures: d.BaseFeatures,
	}
}

func benchEngineConfig() feataug.Config {
	return feataug.Config{
		Seed: 17, WarmupIters: 12, WarmupTopK: 4, GenIters: 4,
		NumTemplates: 2, QueriesPerTemplate: 2, MaxDepth: 2,
		TemplateProxyIters: 6,
	}
}

// BenchmarkAblationGamma sweeps the TPE good/bad quantile γ and reports the
// best validation loss found at γ=0.15 (the paper's cited typical value).
func BenchmarkAblationGamma(b *testing.B) {
	p := benchProblem(b)
	var loss float64
	for i := 0; i < b.N; i++ {
		for _, gamma := range []float64{0.05, 0.15, 0.35} {
			ev, err := pipeline.NewEvaluator(p, ml.KindLR, 17)
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchEngineConfig()
			cfg.TPE = hpo.TPEOptions{Gamma: gamma}
			cfg.DisableQTI = true
			engine := feataug.NewEngine(ev, agg.Basic(), cfg)
			res, err := engine.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if gamma == 0.15 {
				loss = res.Queries[0].Loss
			}
		}
	}
	b.ReportMetric(loss, "best_loss_gamma_0.15")
}

// BenchmarkAblationBeamWidth sweeps β of the QTI beam search.
func BenchmarkAblationBeamWidth(b *testing.B) {
	p := benchProblem(b)
	for i := 0; i < b.N; i++ {
		for _, beam := range []int{1, 2, 3} {
			ev, err := pipeline.NewEvaluator(p, ml.KindLR, 17)
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchEngineConfig()
			cfg.BeamWidth = beam
			engine := feataug.NewEngine(ev, agg.Basic(), cfg)
			if _, err := engine.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationTPEvsRandom compares the best real loss TPE finds against
// uniform random search under an equal evaluation budget (the paper's
// Random row in Table III), averaged over five seeds, and reports the mean
// loss difference (negative = TPE better). A single seed is dominated by
// best-of-n luck; the paper averages repetitions for the same reason.
func BenchmarkAblationTPEvsRandom(b *testing.B) {
	p := benchProblem(b)
	var diff float64
	for i := 0; i < b.N; i++ {
		ev, err := pipeline.NewEvaluator(p, ml.KindLR, 17)
		if err != nil {
			b.Fatal(err)
		}
		tpl := query.Template{
			Funcs: agg.Basic(), AggAttrs: p.AggAttrs,
			PredAttrs: []string{"action", "timestamp"}, Keys: p.Keys,
		}
		space, err := query.BuildSpace(p.Relevant, tpl, query.SpaceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		objective := func(x []int) float64 {
			q, err := space.Decode(x)
			if err != nil {
				return 1e9
			}
			loss, err := ev.QueryLoss(q)
			if err != nil {
				return 1e9
			}
			return loss
		}
		const iters = 60
		const seeds = 5
		sum := 0.0
		for s := int64(0); s < seeds; s++ {
			tpe := hpo.NewTPE(space.Cardinalities(), rand.New(rand.NewSource(100+s)), hpo.TPEOptions{})
			bestT, _ := hpo.Run(tpe, iters, objective)
			// A TPE that never leaves its startup phase is uniform random search.
			rs := hpo.NewTPE(space.Cardinalities(), rand.New(rand.NewSource(100+s)), hpo.TPEOptions{NumStartup: iters})
			bestR, _ := hpo.Run(rs, iters, objective)
			sum += bestT.Loss - bestR.Loss
		}
		diff = sum / seeds
	}
	b.ReportMetric(diff, "tpe_minus_random_loss")
}

// BenchmarkQueryExecution measures the executor on a realistic
// predicate-aware query.
func BenchmarkQueryExecution(b *testing.B) {
	p := benchProblem(b)
	q := query.Query{
		Agg: agg.Avg, AggAttr: "price", Keys: p.Keys,
		Preds: []query.Predicate{
			{Attr: "action", Kind: query.PredEq, StrValue: "buy"},
			{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 5000},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(p.Relevant, "f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPESuggest measures one TPE suggestion over a 100-observation
// history on a realistic query space.
func BenchmarkTPESuggest(b *testing.B) {
	p := benchProblem(b)
	tpl := query.Template{
		Funcs: agg.All(), AggAttrs: p.AggAttrs,
		PredAttrs: p.PredAttrs, Keys: p.Keys,
	}
	space, err := query.BuildSpace(p.Relevant, tpl, query.SpaceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	tpe := hpo.NewTPE(space.Cardinalities(), rng, hpo.TPEOptions{})
	for i := 0; i < 100; i++ {
		x := space.RandomVector(rng.Intn)
		tpe.Observe(hpo.Observation{X: x, Loss: rng.Float64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpe.Suggest()
	}
}

// BenchmarkModelFit measures one downstream model fit per kind on the
// evaluation protocol's training split size.
func BenchmarkModelFit(b *testing.B) {
	p := benchProblem(b)
	ds, err := ml.FromTable(p.Train, p.BaseFeatures, p.Label)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range ml.AllKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := ml.New(kind, ml.Binary, 17)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Fit(ds.X, ds.Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
