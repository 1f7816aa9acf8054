// Package hpo implements the hyper-parameter optimisation machinery of
// Section V: a Tree-structured Parzen Estimator (TPE) over discrete search
// spaces, plus the warm-start hook the paper's warm-up phase uses to transfer
// knowledge from a low-cost proxy task (Section V.C).
//
// Every dimension is categorical with a known cardinality — exactly the shape
// query.Space exposes — so the Parzen estimators are smoothed categorical
// distributions, the discrete form used by Hyperopt for quantised and choice
// hyper-parameters.
package hpo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Observation is one evaluated point: a vector in the discrete space and its
// loss (lower is better).
type Observation struct {
	X    []int
	Loss float64
}

// TPEOptions tune the Tree-structured Parzen Estimator.
type TPEOptions struct {
	// Gamma is the good/bad quantile boundary; the paper cites the typical
	// 10%–15%. 0 means DefaultGamma.
	Gamma float64
	// NumCandidates is the number of EI candidates drawn from the good
	// distribution per suggestion. 0 means DefaultNumCandidates.
	NumCandidates int
	// NumStartup is the number of random suggestions before the surrogate is
	// consulted. 0 means DefaultNumStartup. Warm-started runs may set 1.
	NumStartup int
	// PriorWeight is the Laplace smoothing mass added to every category.
	// 0 means DefaultPriorWeight.
	PriorWeight float64
}

// TPE defaults.
const (
	DefaultGamma         = 0.15
	DefaultNumCandidates = 24
	DefaultNumStartup    = 10
	DefaultPriorWeight   = 1.0
)

func (o TPEOptions) normalized() TPEOptions {
	if o.Gamma <= 0 || o.Gamma >= 1 {
		o.Gamma = DefaultGamma
	}
	if o.NumCandidates <= 0 {
		o.NumCandidates = DefaultNumCandidates
	}
	if o.NumStartup <= 0 {
		o.NumStartup = DefaultNumStartup
	}
	if o.PriorWeight <= 0 {
		o.PriorWeight = DefaultPriorWeight
	}
	return o
}

// TPE is a Tree-structured Parzen Estimator for discrete spaces. It splits
// observations into "good" (lowest-loss γ fraction) and "bad", fits per-
// dimension smoothed categorical densities g and b, and suggests the sampled
// candidate maximising the EI surrogate g(x)/b(x).
type TPE struct {
	cards []int
	rng   *rand.Rand
	opts  TPEOptions
	obs   []Observation
}

// NewTPE builds a TPE optimiser over the given cardinalities.
func NewTPE(cards []int, rng *rand.Rand, opts TPEOptions) *TPE {
	return &TPE{cards: append([]int(nil), cards...), rng: rng, opts: opts.normalized()}
}

// Prime warm-starts the surrogate with observations from a related task
// (Section V.C: the top-k proxy-optimal queries are evaluated for real and
// used to initialise the second round's KDEs).
func (t *TPE) Prime(history []Observation) error {
	for _, o := range history {
		if err := t.check(o.X); err != nil {
			return err
		}
		t.obs = append(t.obs, o)
	}
	return nil
}

func (t *TPE) check(x []int) error {
	if len(x) != len(t.cards) {
		return fmt.Errorf("hpo: vector length %d != dims %d", len(x), len(t.cards))
	}
	for i, v := range x {
		if v < 0 || v >= t.cards[i] {
			return fmt.Errorf("hpo: dim %d value %d out of [0,%d)", i, v, t.cards[i])
		}
	}
	return nil
}

// Observe records an evaluated point.
func (t *TPE) Observe(o Observation) { t.obs = append(t.obs, o) }

// History returns all observations (including primed ones). The slice is
// shared; callers must not mutate it.
func (t *TPE) History() []Observation { return t.obs }

// randomBranch reports whether a TPE holding n observations suggests a
// uniform random vector rather than consulting its surrogate: during startup,
// and while fewer than two observations leave the good or the bad set empty
// (split gives both at least one member from n = 2 on). It depends on the
// observation count alone, never on the losses, which is what makes
// SkipSuggestions exact.
func (o TPEOptions) randomBranch(n int) bool {
	return n < o.NumStartup || n < 2
}

// Suggest proposes the next point: random during startup, otherwise the best
// of NumCandidates samples from the good density under the g/b ratio.
func (t *TPE) Suggest() []int {
	if t.opts.randomBranch(len(t.obs)) {
		return t.randomVector()
	}
	good, bad := t.split()
	g := t.fit(good)
	b := t.fit(bad)
	var best []int
	bestScore := math.Inf(-1)
	for c := 0; c < t.opts.NumCandidates; c++ {
		x := t.sampleFrom(g)
		score := 0.0
		for d := range x {
			score += math.Log(g[d][x[d]]) - math.Log(b[d][x[d]])
		}
		if score > bestScore {
			bestScore = score
			best = x
		}
	}
	return best
}

func (t *TPE) randomVector() []int {
	x := make([]int, len(t.cards))
	for i, c := range t.cards {
		x[i] = t.rng.Intn(c)
	}
	return x
}

// SkipSuggestions advances rng exactly as n Suggest calls would on a TPE over
// cards with opts that starts from primed observations and observes one more
// after each suggestion: one Intn per dimension on the random branch,
// NumCandidates Float64 draws per dimension on the surrogate branch. How many
// draws a suggestion takes depends on the observation count only, so the
// skip needs no losses, builds no densities and allocates nothing. Callers
// use it to hand each of several searches that would share one generator in
// sequence a generator positioned where that search would have started.
func SkipSuggestions(rng *rand.Rand, cards []int, opts TPEOptions, primed, n int) {
	opts = opts.normalized()
	for i := primed; i < primed+n; i++ {
		if opts.randomBranch(i) {
			for _, c := range cards {
				rng.Intn(c)
			}
			continue
		}
		for k := 0; k < opts.NumCandidates*len(cards); k++ {
			rng.Float64()
		}
	}
}

// split partitions history into good (lowest-loss ceil(γ·n), at least 1) and
// bad observations.
func (t *TPE) split() (good, bad []Observation) {
	n := len(t.obs)
	if n == 0 {
		return nil, nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return t.obs[idx[a]].Loss < t.obs[idx[b]].Loss })
	nGood := int(math.Ceil(t.opts.Gamma * float64(n)))
	if nGood < 1 {
		nGood = 1
	}
	if nGood >= n {
		nGood = n - 1
	}
	if nGood < 1 {
		return []Observation{t.obs[idx[0]]}, nil
	}
	for i, j := range idx {
		if i < nGood {
			good = append(good, t.obs[j])
		} else {
			bad = append(bad, t.obs[j])
		}
	}
	return good, bad
}

// fit builds the per-dimension smoothed categorical densities of a point set.
func (t *TPE) fit(obs []Observation) [][]float64 {
	dens := make([][]float64, len(t.cards))
	for d, card := range t.cards {
		p := make([]float64, card)
		total := t.opts.PriorWeight * float64(card)
		for i := range p {
			p[i] = t.opts.PriorWeight
		}
		for _, o := range obs {
			p[o.X[d]]++
			total++
		}
		for i := range p {
			p[i] /= total
		}
		dens[d] = p
	}
	return dens
}

// sampleFrom draws one vector dimension-wise from categorical densities.
func (t *TPE) sampleFrom(dens [][]float64) []int {
	x := make([]int, len(dens))
	for d, p := range dens {
		u := t.rng.Float64()
		acc := 0.0
		x[d] = len(p) - 1
		for i, pi := range p {
			acc += pi
			if u < acc {
				x[d] = i
				break
			}
		}
	}
	return x
}

// Best returns the observation with the lowest loss, or ok=false when the
// optimiser has no history.
func Best(o *TPE) (Observation, bool) {
	h := o.History()
	if len(h) == 0 {
		return Observation{}, false
	}
	best := h[0]
	for _, obs := range h[1:] {
		if obs.Loss < best.Loss {
			best = obs
		}
	}
	return best, true
}

// TopK returns the k lowest-loss observations (fewer when history is short),
// best first. Used by the warm-up phase to pick the top-k proxy queries.
func TopK(o *TPE, k int) []Observation {
	h := append([]Observation(nil), o.History()...)
	sort.SliceStable(h, func(a, b int) bool { return h[a].Loss < h[b].Loss })
	if k > len(h) {
		k = len(h)
	}
	return h[:k]
}

// Run drives an optimiser for n iterations against an evaluation function,
// returning the best observation. Duplicate suggestions are still evaluated
// (the objective may be noisy, matching HPO practice).
func Run(o *TPE, n int, eval func(x []int) float64) (Observation, bool) {
	obs, ok, _ := RunContext(context.Background(), o, n, eval)
	return obs, ok
}

// RunContext is Run under a context: the loop checks for cancellation before
// every suggestion and returns ctx.Err() as soon as it observes one, so a
// long search stops after at most one in-flight evaluation. The best
// observation gathered so far is still returned alongside the error.
func RunContext(ctx context.Context, o *TPE, n int, eval func(x []int) float64) (Observation, bool, error) {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			best, ok := Best(o)
			return best, ok, err
		}
		x := o.Suggest()
		o.Observe(Observation{X: x, Loss: eval(x)})
	}
	best, ok := Best(o)
	return best, ok, nil
}
