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
	"slices"
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

	// order holds obs's indices by ascending loss, equal losses in
	// observation order: what a stable sort by loss gives, kept by inserting
	// each observation after the losses equal to its own. A NaN loss is
	// unordered against every loss, so a history holding one (nan) is
	// stable-sorted afresh whenever its order is read.
	order []int32
	nan   bool

	// The surrogate's scratch, flat over dimensions (dimension d at
	// off[d]:off[d+1]) and rewritten by every Suggest: the good and bad
	// densities, the good density's running sums (the sampling CDF) and each
	// category's log ratio log g - log b, computed on first use (NaN until
	// then); then the candidate being scored and the best one so far.
	off         []int
	g, b, cdf   []float64
	ratio       []float64
	cand, champ []int
}

// NewTPE builds a TPE optimiser over the given cardinalities.
func NewTPE(cards []int, rng *rand.Rand, opts TPEOptions) *TPE {
	off := make([]int, len(cards)+1)
	for d, c := range cards {
		off[d+1] = off[d] + c
	}
	return &TPE{cards: append([]int(nil), cards...), rng: rng, opts: opts.normalized(), off: off}
}

// Prime warm-starts the surrogate with observations from a related task
// (Section V.C: the top-k proxy-optimal queries are evaluated for real and
// used to initialise the second round's KDEs).
func (t *TPE) Prime(history []Observation) error {
	for _, o := range history {
		if err := t.check(o.X); err != nil {
			return err
		}
		t.Observe(o)
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
func (t *TPE) Observe(o Observation) {
	i := int32(len(t.obs))
	t.obs = append(t.obs, o)
	t.nan = t.nan || math.IsNaN(o.Loss)
	at := len(t.order)
	if !t.nan {
		at = sort.Search(len(t.order), func(k int) bool { return t.obs[t.order[k]].Loss > o.Loss })
	}
	t.order = slices.Insert(t.order, at, i)
}

// History returns all observations (including primed ones). The slice is
// shared; callers must not mutate it.
func (t *TPE) History() []Observation { return t.obs }

// lossOrder returns the history's indices by ascending loss, ties in
// observation order. The slice is the TPE's own.
func (t *TPE) lossOrder() []int32 {
	if t.nan {
		for i := range t.order {
			t.order[i] = int32(i)
		}
		sort.SliceStable(t.order, func(a, b int) bool { return t.obs[t.order[a]].Loss < t.obs[t.order[b]].Loss })
	}
	return t.order
}

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
// of NumCandidates samples from the good density under the g/b ratio. Each
// candidate draws one Float64 per dimension.
func (t *TPE) Suggest() []int {
	if t.opts.randomBranch(len(t.obs)) {
		return t.randomVector()
	}
	// The scratch is as large as the space, so it waits for the first
	// surrogate suggestion: a TPE that only draws at random may span a huge
	// space.
	if t.g == nil {
		size := t.off[len(t.cards)]
		t.g, t.b = make([]float64, size), make([]float64, size)
		t.cdf, t.ratio = make([]float64, size), make([]float64, size)
		t.cand, t.champ = make([]int, len(t.cards)), make([]int, len(t.cards))
	}
	good, bad := t.split()
	t.fit(good, t.g)
	t.fit(bad, t.b)
	for d := range t.cards {
		acc := 0.0
		for i := t.off[d]; i < t.off[d+1]; i++ {
			acc += t.g[i]
			t.cdf[i] = acc
			t.ratio[i] = math.NaN()
		}
	}
	found := false
	bestScore := math.Inf(-1)
	for c := 0; c < t.opts.NumCandidates; c++ {
		score := 0.0
		for d, card := range t.cards {
			// The first category whose running sum exceeds u, else the
			// last: the running sums never decrease, so a binary search
			// finds what a scan accumulating them would stop at.
			u := t.rng.Float64()
			cdf := t.cdf[t.off[d]:t.off[d+1]]
			x := min(sort.Search(card, func(i int) bool { return u < cdf[i] }), card-1)
			t.cand[d] = x
			j := t.off[d] + x
			r := t.ratio[j]
			if math.IsNaN(r) {
				r = math.Log(t.g[j]) - math.Log(t.b[j])
				t.ratio[j] = r
			}
			score += r
		}
		if score > bestScore {
			bestScore = score
			copy(t.champ, t.cand)
			found = true
		}
	}
	if !found {
		return nil
	}
	return slices.Clone(t.champ)
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

// split partitions the history by loss into good (the lowest ceil(γ·n), at
// least 1) and bad observations, as views of lossOrder.
func (t *TPE) split() (good, bad []int32) {
	n := len(t.obs)
	if n == 0 {
		return nil, nil
	}
	order := t.lossOrder()
	nGood := int(math.Ceil(t.opts.Gamma * float64(n)))
	if nGood < 1 {
		nGood = 1
	}
	if nGood >= n {
		nGood = n - 1
	}
	if nGood < 1 {
		return order[:1], nil
	}
	return order[:nGood], order[nGood:]
}

// fit writes into dens the per-dimension smoothed categorical densities of
// the observations at idx.
func (t *TPE) fit(idx []int32, dens []float64) {
	for d, card := range t.cards {
		p := dens[t.off[d]:t.off[d+1]]
		total := t.opts.PriorWeight * float64(card)
		for i := range p {
			p[i] = t.opts.PriorWeight
		}
		for _, i := range idx {
			p[t.obs[i].X[d]]++
			total++
		}
		for i := range p {
			p[i] /= total
		}
	}
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
// best first, equal losses in observation order. Used by the warm-up phase to
// pick the top-k proxy queries.
func TopK(o *TPE, k int) []Observation {
	order := o.lossOrder()
	out := make([]Observation, min(k, len(order)))
	for i := range out {
		out[i] = o.obs[order[i]]
	}
	return out
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
