package feataug

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/hpo"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// Engine runs the FeatAug framework against one problem/model pair.
type Engine struct {
	eval *pipeline.Evaluator
	cfg  Config
	rng  *rand.Rand
	// spaces caches per-attribute value domains and whole template spaces
	// across the many templates QTI and generation visit.
	spaces *query.SpaceCache
	// Funcs is the aggregation function set F used in every template.
	Funcs []agg.Func
}

// NewEngine builds an engine. funcs defaults to the full 15-function set of
// Table II when nil.
func NewEngine(eval *pipeline.Evaluator, funcs []agg.Func, cfg Config) *Engine {
	if funcs == nil {
		funcs = agg.All()
	}
	cfg = cfg.normalized()
	return &Engine{
		eval:   eval,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		spaces: query.NewSpaceCache(eval.P.Relevant, cfg.Space),
		Funcs:  funcs,
	}
}

// Template assembles the quadruple for a WHERE-clause attribute combination.
func (e *Engine) Template(predAttrs []string) query.Template {
	return query.Template{
		Funcs:     e.Funcs,
		AggAttrs:  e.eval.P.AggAttrs,
		PredAttrs: predAttrs,
		Keys:      e.eval.P.Keys,
	}
}

// GeneratedQuery pairs a query with its real validation loss.
type GeneratedQuery struct {
	Query query.Query
	Loss  float64
}

// GenerateQueries is the SQL Query Generation component (Section V): given a
// template it searches the query pool with TPE — warm-started on the proxy
// task unless disabled — and returns up to k distinct queries with the lowest
// real validation losses. Cancelling the context stops the search between
// evaluations and returns ctx.Err().
func (e *Engine) GenerateQueries(ctx context.Context, tpl query.Template, k int) ([]GeneratedQuery, error) {
	qs, _, err := e.generateQueries(ctx, tpl, k, 0, 1)
	return qs, err
}

// generateQueries is GenerateQueries with the template's position in the
// overall run threaded through, so StageWarmup progress counts done/total
// templates instead of restarting at 0/1 for every template. It also returns
// the wall time of the warm-up, the interval between the two StageWarmup
// progress calls (0 under DisableWarmup).
func (e *Engine) generateQueries(ctx context.Context, tpl query.Template, k, tplIdx, tplTotal int) ([]GeneratedQuery, time.Duration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	space, err := e.spaces.Space(tpl)
	if err != nil {
		return nil, 0, err
	}
	cards := space.Cardinalities()

	realLoss := func(x []int) float64 {
		q, err := space.Decode(x)
		if err != nil {
			return 1e9
		}
		loss, err := e.eval.QueryLoss(q)
		if err != nil {
			return 1e9
		}
		return loss
	}

	// User-suggested seed queries: evaluate for real and prime whichever
	// surrogate runs below.
	var seedObs []hpo.Observation
	for _, sq := range e.cfg.SeedQueries {
		vec, err := space.Encode(sq)
		if err != nil {
			continue // not expressible in this template's pool
		}
		seedObs = append(seedObs, hpo.Observation{X: vec, Loss: realLoss(vec)})
	}

	var gen *hpo.TPE
	var warmup time.Duration
	if e.cfg.DisableWarmup {
		// NoWU ablation: one plain TPE round with the combined budget.
		gen = hpo.NewTPE(cards, e.rng, e.cfg.TPE)
		if err := gen.Prime(seedObs); err != nil {
			return nil, 0, err
		}
		if _, _, err := hpo.RunContext(ctx, gen, e.cfg.NoWarmupIters, realLoss); err != nil {
			return nil, 0, err
		}
	} else {
		// Warm-Up Phase: TPE on the low-cost proxy task.
		proxyLoss := func(x []int) float64 {
			q, err := space.Decode(x)
			if err != nil {
				return 1e9
			}
			score, err := e.eval.ProxyScore(q, e.cfg.Proxy)
			if err != nil {
				return 1e9
			}
			return -score // proxies are higher-is-better
		}
		e.cfg.progress(StageWarmup, tplIdx, tplTotal)
		tWarm := time.Now()
		warm := hpo.NewTPE(cards, e.rng, e.cfg.TPE)
		if _, _, err := hpo.RunContext(ctx, warm, e.cfg.WarmupIters, proxyLoss); err != nil {
			return nil, 0, err
		}

		// Evaluate the top-k proxy queries for real and prime the second
		// round's surrogate with them (Figure 3). Their features are already
		// in the evaluator's cache from the proxy evaluations, so only the
		// model fits remain — sequential for determinism.
		top := hpo.TopK(warm, e.cfg.WarmupTopK)
		prime := make([]hpo.Observation, 0, len(top))
		for _, o := range top {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			prime = append(prime, hpo.Observation{X: o.X, Loss: realLoss(o.X)})
		}
		warmup = time.Since(tWarm)
		e.cfg.progress(StageWarmup, tplIdx+1, tplTotal)
		opts := e.cfg.TPE
		opts.NumStartup = 1 // surrogate is already informed
		gen = hpo.NewTPE(cards, e.rng, opts)
		if err := gen.Prime(append(prime, seedObs...)); err != nil {
			return nil, 0, err
		}
		// Query-Generation Phase: TPE on the real objective.
		if _, _, err := hpo.RunContext(ctx, gen, e.cfg.GenIters, realLoss); err != nil {
			return nil, 0, err
		}
	}

	qs, err := bestDistinctQueries(space, gen.History(), k)
	return qs, warmup, err
}

// bestDistinctQueries decodes the optimiser history, deduplicates by query
// identity and returns the k lowest-loss queries. Degenerate queries
// (all-NULL / constant features, marked with the evaluator's sentinel loss)
// are only used as a last resort when the whole history is degenerate — a
// tiny-budget search over a template whose predicates mostly select empty
// sets can end up there, and returning something keeps the pipeline total.
func bestDistinctQueries(space *query.Space, history []hpo.Observation, k int) ([]GeneratedQuery, error) {
	hist := append([]hpo.Observation(nil), history...)
	sort.SliceStable(hist, func(a, b int) bool { return hist[a].Loss < hist[b].Loss })
	collect := func(includeDegenerate bool) ([]GeneratedQuery, error) {
		seen := map[string]bool{}
		var out []GeneratedQuery
		for _, o := range hist {
			if o.Loss >= pipeline.DegenerateLoss && !includeDegenerate {
				continue
			}
			q, err := space.Decode(o.X)
			if err != nil {
				return nil, err
			}
			key := q.SQL("R")
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, GeneratedQuery{Query: q, Loss: o.Loss})
			if len(out) == k {
				break
			}
		}
		return out, nil
	}
	out, err := collect(false)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		out, err = collect(true)
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w (empty search history)", ErrNoQueries)
	}
	return out, nil
}
