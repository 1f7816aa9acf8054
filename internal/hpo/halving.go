package hpo

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
)

// SuccessiveHalvingBatch implements the Hyperband-style bracket the paper's
// related-work section points at (Li et al. 2017, Falkner et al. 2018) as a
// future alternative to plain TPE: n uniformly drawn configurations are
// evaluated at increasing fidelity, keeping the top 1/eta fraction per rung.
//
// evalBatch receives every surviving configuration of one rung at once, with
// the rung fidelity in (0, 1], and returns their losses in order; fidelity 1
// is a full-cost evaluation. For predicate-aware query generation the natural
// fidelity axis is the evaluation cost of a query: low rungs use the low-cost
// proxy, the final rung the real model loss — the same cheap-to-expensive
// laddering as the paper's warm-up, but within one bracket. Callers use the
// batch boundary to prewarm shared state — e.g. materialise all candidate
// features through the query executor's fused shared-scan batch path, which
// collapses a rung of near-identical queries to one set of scans per distinct
// WHERE mask — before scoring.
//
// Cancellation is checked before and after every rung; a cancelled bracket
// returns ctx.Err() and a rung cut short never picks survivors.
func SuccessiveHalvingBatch(ctx context.Context, cards []int, rng *rand.Rand, n, eta int, evalBatch func(xs [][]int, fidelity float64) []float64) (Observation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n < 1 {
		return Observation{}, fmt.Errorf("hpo: need at least one configuration")
	}
	if eta < 2 {
		eta = 3
	}
	type cand struct {
		x    []int
		loss float64
	}
	pop := make([]cand, n)
	for i := range pop {
		x := make([]int, len(cards))
		for d, c := range cards {
			x[d] = rng.Intn(c)
		}
		pop[i] = cand{x: x}
	}
	// Number of rungs: halve until one survivor.
	rungs := 1
	for m := n; m > 1; m = (m + eta - 1) / eta {
		rungs++
	}
	for r := 0; r < rungs && len(pop) > 0; r++ {
		if err := ctx.Err(); err != nil {
			return Observation{}, err
		}
		fidelity := float64(r+1) / float64(rungs)
		xs := make([][]int, len(pop))
		for i := range pop {
			xs[i] = pop[i].x
		}
		losses := evalBatch(xs, fidelity)
		if err := ctx.Err(); err != nil {
			// The rung may have been cut short; its partial losses must not
			// pick survivors.
			return Observation{}, err
		}
		for i := range pop {
			pop[i].loss = losses[i]
		}
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].loss < pop[b].loss })
		if r < rungs-1 {
			keep := (len(pop) + eta - 1) / eta
			if keep < 1 {
				keep = 1
			}
			pop = pop[:keep]
		}
	}
	best := pop[0]
	return Observation{X: best.x, Loss: best.loss}, nil
}
