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
	// rng draws cfg.Seed's stream from src, whose count is the stream
	// position; Run hands each concurrent search its own generator over the
	// same stream (see runSplit).
	rng *rand.Rand
	src *countingSource
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
	src := newCountingSource(cfg.Seed)
	return &Engine{
		eval:   eval,
		cfg:    cfg,
		rng:    rand.New(src),
		src:    src,
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
	if ctx == nil {
		ctx = context.Background()
	}
	space, err := e.spaces.Space(tpl)
	if err != nil {
		return nil, err
	}
	if !e.cfg.DisableWarmup {
		e.cfg.progress(StageWarmup, 0, 1)
	}
	qs, _, err := e.generateQueries(ctx, space, k, e.rng, func() { e.cfg.progress(StageWarmup, 1, 1) })
	return qs, err
}

// seedVectors encodes the SeedQueries the template's pool can express.
func (e *Engine) seedVectors(space *query.Space) [][]int {
	var out [][]int
	for _, sq := range e.cfg.SeedQueries {
		if vec, err := space.Encode(sq); err == nil {
			out = append(out, vec)
		}
	}
	return out
}

// genTPE is the generation round's TPE configuration: its surrogate starts
// out informed by the warm-up's priming evaluations.
func (e *Engine) genTPE() hpo.TPEOptions {
	opts := e.cfg.TPE
	opts.NumStartup = 1
	return opts
}

// skipGeneration advances e.rng exactly as generateQueries would over the
// template's pool (see runSplit): the warm-up from no observations, then the
// generation round primed with the top-k warm-up points and the expressible
// seed queries; under DisableWarmup, one round primed with the seeds.
func (e *Engine) skipGeneration(space *query.Space) {
	cards := space.Cardinalities()
	seeds := len(e.seedVectors(space))
	if e.cfg.DisableWarmup {
		hpo.SkipSuggestions(e.rng, cards, e.cfg.TPE, seeds, e.cfg.NoWarmupIters)
		return
	}
	hpo.SkipSuggestions(e.rng, cards, e.cfg.TPE, 0, e.cfg.WarmupIters)
	hpo.SkipSuggestions(e.rng, cards, e.genTPE(), min(e.cfg.WarmupTopK, e.cfg.WarmupIters)+seeds, e.cfg.GenIters)
}

// generateQueries is one template's search, drawing from rng. warmed is
// called as the warm-up ends. It also returns the warm-up's
// wall time, proxy TPE plus the priming real evaluations (0 under
// DisableWarmup).
func (e *Engine) generateQueries(ctx context.Context, space *query.Space, k int, rng *rand.Rand, warmed func()) ([]GeneratedQuery, time.Duration, error) {
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
	for _, vec := range e.seedVectors(space) {
		seedObs = append(seedObs, hpo.Observation{X: vec, Loss: realLoss(vec)})
	}

	var gen *hpo.TPE
	var warmup time.Duration
	if e.cfg.DisableWarmup {
		// NoWU ablation: one plain TPE round with the combined budget.
		gen = hpo.NewTPE(cards, rng, e.cfg.TPE)
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
		tWarm := time.Now()
		warm := hpo.NewTPE(cards, rng, e.cfg.TPE)
		if _, _, err := hpo.RunContext(ctx, warm, e.cfg.WarmupIters, proxyLoss); err != nil {
			return nil, 0, err
		}

		// Evaluate the top-k proxy queries for real and prime the second
		// round's surrogate with them (Figure 3). Their features are already
		// in the evaluator's cache from the proxy evaluations, so only the
		// model fits remain. They run one after another: the template
		// searches themselves are what runs concurrently.
		top := hpo.TopK(warm, e.cfg.WarmupTopK)
		prime := make([]hpo.Observation, 0, len(top))
		for _, o := range top {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			prime = append(prime, hpo.Observation{X: o.X, Loss: realLoss(o.X)})
		}
		warmup = time.Since(tWarm)
		warmed()
		gen = hpo.NewTPE(cards, rng, e.genTPE())
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
