package feataug

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/hpo"
	"repro/internal/query"
)

// TemplateScore pairs a WHERE-clause attribute combination with its
// estimated effectiveness (higher is better — the negated best loss / best
// proxy value of its query pool).
type TemplateScore struct {
	PredAttrs []string `json:"pred_attrs"`
	Score     float64  `json:"score"`
}

// IdentifyTemplates is the Query Template Identification component (Section
// VI): beam search over the attribute-subset tree, with Optimisation 1
// (low-cost proxy instead of real model loss per node) and Optimisation 2
// (the ridge performance predictor pruning each layer to the top-β nodes
// before proxy evaluation). It returns the n most promising attribute
// combinations across all evaluated nodes, best first. The nodes of a layer
// are evaluated concurrently, each on its own split of the engine's random
// stream (see runSplit), so the result does not depend on the schedule.
func (e *Engine) IdentifyTemplates(ctx context.Context, attrs []string, n int) ([]TemplateScore, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	templates, _, err := e.identifyTemplates(ctx, attrs, n)
	return templates, err
}

// identifyTemplates is IdentifyTemplates that also returns by how much the
// layers' concurrent node evaluations overlapped: the summed node time
// beyond each layer's wall time, which turns QTI wall time into work time.
func (e *Engine) identifyTemplates(ctx context.Context, attrs []string, n int) ([]TemplateScore, time.Duration, error) {
	if len(attrs) == 0 {
		return nil, 0, fmt.Errorf("%w: no candidate attributes for QTI", ErrNoTemplates)
	}
	maxDepth := e.cfg.MaxDepth
	if maxDepth > len(attrs) {
		maxDepth = len(attrs)
	}

	evaluated := map[string]TemplateScore{}
	var predictorX [][]float64
	var predictorY []float64
	var overlap time.Duration

	// evalLayer scores a layer's combinations. Those not evaluated before run
	// concurrently, and their scores fold into evaluated and the predictor's
	// training set in layer order, as one-by-one evaluation would add them.
	evalLayer := func(combos [][]string) ([]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var fresh [][]string
		var spaces []*query.Space
		pending := map[string]bool{}
		for _, combo := range combos {
			key := query.CanonicalAttrKey(combo)
			if _, ok := evaluated[key]; ok || pending[key] {
				continue
			}
			// The shared space cache matters most here: beam search revisits
			// every attribute in many combinations, and each would otherwise
			// rescan the relevant table for distinct values / quantile grids.
			space, err := e.spaces.Space(e.Template(combo))
			if err != nil {
				return nil, err
			}
			pending[key] = true
			fresh, spaces = append(fresh, combo), append(spaces, space)
		}
		scores := make([]float64, len(fresh))
		took := make([]time.Duration, len(fresh))
		t0 := time.Now()
		err := e.runSplit(ctx, len(fresh), func(i int) {
			hpo.SkipSuggestions(e.rng, spaces[i].Cardinalities(), e.qtiTPE(), 0, e.cfg.TemplateProxyIters)
		}, func(i int, rng *rand.Rand) error {
			t := time.Now()
			var err error
			scores[i], err = e.templateEffectiveness(ctx, spaces[i], rng)
			took[i] = time.Since(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		work := -time.Since(t0)
		for _, d := range took {
			work += d
		}
		overlap += max(work, 0)
		for i, combo := range fresh {
			evaluated[query.CanonicalAttrKey(combo)] = TemplateScore{PredAttrs: append([]string(nil), combo...), Score: scores[i]}
			predictorX = append(predictorX, query.EncodeAttrSet(attrs, combo))
			predictorY = append(predictorY, scores[i])
		}
		out := make([]float64, len(combos))
		for i, combo := range combos {
			out[i] = evaluated[query.CanonicalAttrKey(combo)].Score
		}
		return out, nil
	}

	// Layer 1: every single attribute is evaluated (this is also the
	// predictor's first training set).
	type node struct {
		combo []string
		score float64
	}
	singles := make([][]string, len(attrs))
	for i, a := range attrs {
		singles[i] = []string{a}
	}
	scores, err := evalLayer(singles)
	if err != nil {
		return nil, 0, err
	}
	var layer []node
	for i, combo := range singles {
		layer = append(layer, node{combo: combo, score: scores[i]})
	}

	beam := e.cfg.BeamWidth
	for depth := 2; depth <= maxDepth; depth++ {
		// Keep the top-β nodes of the previous layer for expansion.
		sort.SliceStable(layer, func(a, b int) bool { return layer[a].score > layer[b].score })
		if len(layer) > beam {
			layer = layer[:beam]
		}
		// Expand each kept node by every unused attribute, deduplicating
		// combinations across parents.
		childSet := map[string][]string{}
		for _, parent := range layer {
			used := map[string]bool{}
			for _, a := range parent.combo {
				used[a] = true
			}
			for _, a := range attrs {
				if used[a] {
					continue
				}
				combo := append(append([]string(nil), parent.combo...), a)
				key := query.CanonicalAttrKey(combo)
				if _, seen := evaluated[key]; seen {
					continue
				}
				childSet[key] = combo
			}
		}
		if len(childSet) == 0 {
			break
		}
		children := make([][]string, 0, len(childSet))
		for _, c := range childSet {
			children = append(children, c)
		}
		sort.Slice(children, func(a, b int) bool {
			return query.CanonicalAttrKey(children[a]) < query.CanonicalAttrKey(children[b])
		})

		// Optimisation 2: rank children with the trained predictor and only
		// proxy-evaluate the top-β. Without it, evaluate every child.
		toEval := children
		if !e.cfg.DisablePredictor && len(children) > beam {
			model := newRidge(0)
			if err := model.fit(predictorX, predictorY); err == nil {
				sort.SliceStable(children, func(a, b int) bool {
					return model.predict(query.EncodeAttrSet(attrs, children[a])) >
						model.predict(query.EncodeAttrSet(attrs, children[b]))
				})
				toEval = children[:beam]
			}
		}

		scores, err := evalLayer(toEval)
		if err != nil {
			return nil, 0, err
		}
		layer = layer[:0]
		for i, combo := range toEval {
			layer = append(layer, node{combo: combo, score: scores[i]})
		}
	}

	// The n most promising templates over all evaluated nodes (the paper
	// picks from the union of every layer, e.g. the 18 nodes of Figure 4).
	all := make([]TemplateScore, 0, len(evaluated))
	for _, ts := range evaluated {
		all = append(all, ts)
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return query.CanonicalAttrKey(all[a].PredAttrs) < query.CanonicalAttrKey(all[b].PredAttrs)
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n], overlap, nil
}

// qtiTPE is the short template-effectiveness search's TPE configuration.
func (e *Engine) qtiTPE() hpo.TPEOptions {
	opts := e.cfg.TPE
	opts.NumStartup = max(e.cfg.TemplateProxyIters/3, 3)
	return opts
}

// templateEffectiveness estimates how good a template's best query is
// (Definition 5), drawing from rng. With Optimisation 1 it runs a short TPE
// round on the proxy objective; without it, on the real model objective.
func (e *Engine) templateEffectiveness(ctx context.Context, space *query.Space, rng *rand.Rand) (float64, error) {
	objective := func(x []int) float64 {
		q, err := space.Decode(x)
		if err != nil {
			return 1e9
		}
		if e.cfg.DisableProxyOpt {
			loss, err := e.eval.QueryLoss(q)
			if err != nil {
				return 1e9
			}
			return loss
		}
		score, err := e.eval.ProxyScore(q, e.cfg.Proxy)
		if err != nil {
			return 1e9
		}
		return -score
	}
	tpe := hpo.NewTPE(space.Cardinalities(), rng, e.qtiTPE())
	best, ok, err := hpo.RunContext(ctx, tpe, e.cfg.TemplateProxyIters, objective)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: empty template search", ErrNoTemplates)
	}
	return -best.Loss, nil
}
