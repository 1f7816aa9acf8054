package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/query"
)

// benchCandidates builds fit-student's problem shape (150 training rows,
// XGB) and n distinct non-degenerate candidate queries drawn uniformly from
// one template's space, with their features already materialised, so a
// benchmark times only what a candidate evaluation does past the query
// engine.
func benchCandidates(b *testing.B, n int) (*Evaluator, []query.Query) {
	b.Helper()
	d := datagen.Student(datagen.Options{TrainRows: 150, Seed: 1})
	p := Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		BaseFeatures: d.BaseFeatures,
	}
	e, err := NewEvaluator(p, ml.KindXGB, 1)
	if err != nil {
		b.Fatal(err)
	}
	tpl := query.Template{Funcs: agg.Basic(), AggAttrs: p.AggAttrs, PredAttrs: p.PredAttrs, Keys: p.Keys}
	space, err := query.BuildSpace(p.Relevant, tpl, query.SpaceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	var qs []query.Query
	for tries := 0; len(qs) < n && tries < 100*n; tries++ {
		q, err := space.Decode(space.RandomVector(rng.Intn))
		if err != nil {
			b.Fatal(err)
		}
		if key := q.SQL("R"); !seen[key] {
			seen[key] = true
			vals, valid, err := e.Feature(q)
			if err != nil {
				b.Fatal(err)
			}
			if !degenerate(vals, valid) {
				qs = append(qs, q)
			}
		}
	}
	if len(qs) < n {
		b.Fatalf("%d candidates, want %d", len(qs), n)
	}
	return e, qs
}

// BenchmarkProxyScoreMI times one MI proxy score of a cached candidate
// feature, the warm-up's unit of work.
func BenchmarkProxyScoreMI(b *testing.B) {
	e, qs := benchCandidates(b, 16)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := e.ProxyScore(qs[i%len(qs)], ProxyMI); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLossXGB times one real-model evaluation of a cached
// candidate feature: dataset assembly, the split, the XGB fit and the
// validation loss. The loss cache is cleared each time, so every call fits.
func BenchmarkQueryLossXGB(b *testing.B) {
	e, qs := benchCandidates(b, 16)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		clear(e.lossCache)
		if _, err := e.QueryLoss(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
