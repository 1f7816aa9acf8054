package hpo

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadLoss is a separable discrete objective with a unique optimum at the
// middle of every dimension.
func quadLoss(cards []int) func(x []int) float64 {
	return func(x []int) float64 {
		loss := 0.0
		for d, v := range x {
			opt := float64(cards[d] / 2)
			diff := float64(v) - opt
			loss += diff * diff
		}
		return loss
	}
}

// TestRandomSearchBounds checks that uniform random search — a TPE that
// never leaves its startup phase, the reference TPE is measured against —
// stays inside the space and records what it observes.
func TestRandomSearchBounds(t *testing.T) {
	cards := []int{3, 5, 2}
	rs := NewTPE(cards, rand.New(rand.NewSource(1)), TPEOptions{NumStartup: 1000})
	for i := 0; i < 200; i++ {
		x := rs.Suggest()
		for d, v := range x {
			if v < 0 || v >= cards[d] {
				t.Fatalf("out of bounds: %v", x)
			}
		}
		rs.Observe(Observation{X: x, Loss: float64(i % 7)})
	}
	if len(rs.History()) != 200 {
		t.Fatal("history not recorded")
	}
}

func TestTPEStartupIsRandom(t *testing.T) {
	cards := []int{4, 4}
	tpe := NewTPE(cards, rand.New(rand.NewSource(1)), TPEOptions{NumStartup: 5})
	for i := 0; i < 5; i++ {
		x := tpe.Suggest()
		if len(x) != 2 {
			t.Fatal("wrong dims")
		}
		tpe.Observe(Observation{X: x, Loss: float64(i)})
	}
}

func TestTPEBeatsRandomOnStructuredObjective(t *testing.T) {
	cards := []int{11, 11, 11, 11}
	loss := quadLoss(cards)
	iters := 120
	var tpeWins int
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		seed := int64(100 + trial)
		tpe := NewTPE(cards, rand.New(rand.NewSource(seed)), TPEOptions{})
		bestT, _ := Run(tpe, iters, loss)
		// A TPE that never leaves its startup phase is uniform random search.
		rs := NewTPE(cards, rand.New(rand.NewSource(seed)), TPEOptions{NumStartup: iters})
		bestR, _ := Run(rs, iters, loss)
		if bestT.Loss <= bestR.Loss {
			tpeWins++
		}
	}
	if tpeWins < 4 {
		t.Fatalf("TPE won only %d/%d trials against random", tpeWins, trials)
	}
}

func TestTPEFindsOptimumEventually(t *testing.T) {
	cards := []int{9, 9}
	loss := quadLoss(cards)
	tpe := NewTPE(cards, rand.New(rand.NewSource(3)), TPEOptions{})
	best, ok := Run(tpe, 200, loss)
	if !ok {
		t.Fatal("no best")
	}
	if best.Loss > 2 {
		t.Fatalf("best loss = %v after 200 iters, want near 0", best.Loss)
	}
}

func TestTPEDeterministicWithSeed(t *testing.T) {
	cards := []int{7, 7}
	loss := quadLoss(cards)
	run := func() []Observation {
		tpe := NewTPE(cards, rand.New(rand.NewSource(9)), TPEOptions{})
		Run(tpe, 50, loss)
		return tpe.History()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i].Loss != b[i].Loss {
			t.Fatalf("trajectory diverged at %d", i)
		}
		for d := range a[i].X {
			if a[i].X[d] != b[i].X[d] {
				t.Fatalf("vector diverged at %d", i)
			}
		}
	}
}

func TestTPEPrimeWarmStart(t *testing.T) {
	cards := []int{21}
	loss := func(x []int) float64 { v := float64(x[0]) - 10; return v * v }
	// Prime with observations revealing the optimum neighbourhood.
	warm := []Observation{
		{X: []int{10}, Loss: 0}, {X: []int{9}, Loss: 1}, {X: []int{11}, Loss: 1},
		{X: []int{0}, Loss: 100}, {X: []int{20}, Loss: 100}, {X: []int{1}, Loss: 81},
		{X: []int{19}, Loss: 81}, {X: []int{2}, Loss: 64}, {X: []int{18}, Loss: 64},
		{X: []int{3}, Loss: 49},
	}
	tpe := NewTPE(cards, rand.New(rand.NewSource(5)), TPEOptions{NumStartup: 1})
	if err := tpe.Prime(warm); err != nil {
		t.Fatal(err)
	}
	// After priming, suggestions should concentrate near the optimum.
	near := 0
	const draws = 30
	for i := 0; i < draws; i++ {
		x := tpe.Suggest()
		if math.Abs(float64(x[0])-10) <= 3 {
			near++
		}
		tpe.Observe(Observation{X: x, Loss: loss(x)})
	}
	if near < draws/2 {
		t.Fatalf("only %d/%d suggestions near optimum after warm start", near, draws)
	}
}

func TestTPEPrimeValidation(t *testing.T) {
	tpe := NewTPE([]int{3}, rand.New(rand.NewSource(1)), TPEOptions{})
	if err := tpe.Prime([]Observation{{X: []int{0, 1}, Loss: 0}}); err == nil {
		t.Error("wrong length should fail")
	}
	if err := tpe.Prime([]Observation{{X: []int{5}, Loss: 0}}); err == nil {
		t.Error("out-of-range should fail")
	}
}

func TestBestAndTopK(t *testing.T) {
	opt := NewTPE([]int{2}, rand.New(rand.NewSource(1)), TPEOptions{})
	if _, ok := Best(opt); ok {
		t.Fatal("Best on empty history should report !ok")
	}
	opt.Observe(Observation{X: []int{0}, Loss: 3})
	opt.Observe(Observation{X: []int{1}, Loss: 1})
	opt.Observe(Observation{X: []int{0}, Loss: 2})
	best, ok := Best(opt)
	if !ok || best.Loss != 1 {
		t.Fatalf("Best = %v", best)
	}
	top := TopK(opt, 2)
	if len(top) != 2 || top[0].Loss != 1 || top[1].Loss != 2 {
		t.Fatalf("TopK = %v", top)
	}
	if got := TopK(opt, 10); len(got) != 3 {
		t.Fatalf("TopK over-length = %d", len(got))
	}
}

func TestTPEOptionsNormalization(t *testing.T) {
	o := TPEOptions{}.normalized()
	if o.Gamma != DefaultGamma || o.NumCandidates != DefaultNumCandidates ||
		o.NumStartup != DefaultNumStartup || o.PriorWeight != DefaultPriorWeight {
		t.Fatalf("defaults not applied: %+v", o)
	}
	o = TPEOptions{Gamma: 1.5}.normalized()
	if o.Gamma != DefaultGamma {
		t.Fatal("gamma >= 1 should reset to default")
	}
}

func TestSplitEdgeCases(t *testing.T) {
	tpe := NewTPE([]int{2}, rand.New(rand.NewSource(1)), TPEOptions{})
	good, bad := tpe.split()
	if good != nil || bad != nil {
		t.Fatal("empty history should split to nil")
	}
	tpe.Observe(Observation{X: []int{0}, Loss: 1})
	good, bad = tpe.split()
	if len(good) != 1 || len(bad) != 0 {
		t.Fatalf("single obs split = %d/%d", len(good), len(bad))
	}
}

// Property: suggestions are always within bounds, whatever the history.
func TestPropertySuggestInBounds(t *testing.T) {
	f := func(seed int64, rawLosses []float64) bool {
		cards := []int{3, 4, 5}
		rng := rand.New(rand.NewSource(seed))
		tpe := NewTPE(cards, rng, TPEOptions{NumStartup: 2})
		for _, l := range rawLosses {
			if math.IsNaN(l) {
				continue
			}
			x := tpe.Suggest()
			for d, v := range x {
				if v < 0 || v >= cards[d] {
					return false
				}
			}
			tpe.Observe(Observation{X: x, Loss: l})
		}
		x := tpe.Suggest()
		for d, v := range x {
			if v < 0 || v >= cards[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Best always returns the minimum of the recorded losses.
func TestPropertyBestIsMinimum(t *testing.T) {
	f := func(losses []float64) bool {
		opt := NewTPE([]int{2}, rand.New(rand.NewSource(1)), TPEOptions{})
		min := math.Inf(1)
		for _, l := range losses {
			if math.IsNaN(l) {
				continue
			}
			opt.Observe(Observation{X: []int{0}, Loss: l})
			if l < min {
				min = l
			}
		}
		best, ok := Best(opt)
		if !ok {
			return len(opt.History()) == 0
		}
		return best.Loss == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tpe := NewTPE([]int{5}, rand.New(rand.NewSource(1)), TPEOptions{})
	evals := 0
	_, _, err := RunContext(ctx, tpe, 100, func(x []int) float64 {
		evals++
		if evals == 3 {
			cancel()
		}
		return float64(x[0])
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evals != 3 {
		t.Fatalf("ran %d evaluations, want 3 (stop right after cancel)", evals)
	}
	// The observations gathered before cancellation are preserved.
	if len(tpe.History()) != 3 {
		t.Fatalf("history = %d, want 3", len(tpe.History()))
	}
}

// drawCounter counts the values drawn from a source.
type drawCounter struct {
	src rand.Source
	n   int
}

func (c *drawCounter) Int63() int64    { c.n++; return c.src.Int63() }
func (c *drawCounter) Seed(seed int64) { c.src.Seed(seed) }

// Property: SkipSuggestions leaves a generator exactly where a real primed
// TPE run leaves an identically seeded one, whatever the losses — ties,
// sentinel losses and all — because the draw schedule depends on
// observation counts alone.
func TestPropertySkipSuggestionsMatchesRun(t *testing.T) {
	pick := rand.New(rand.NewSource(7))
	randLoss := func() float64 {
		switch pick.Intn(4) {
		case 0:
			return 1e9 // the evaluator's degenerate sentinel
		case 1:
			return 1 // ties
		default:
			return pick.Float64()
		}
	}
	for trial := 0; trial < 300; trial++ {
		cards := make([]int, 1+pick.Intn(4))
		for d := range cards {
			if pick.Intn(3) == 0 {
				cards[d] = 1 << pick.Intn(6) // powers of two: one draw per Intn
			} else {
				cards[d] = 1 + pick.Intn(60)
			}
		}
		opts := TPEOptions{NumStartup: 1 + pick.Intn(12), NumCandidates: 1 + pick.Intn(30)}
		primed, n := pick.Intn(4), pick.Intn(81)
		seed := pick.Int63()
		prime := make([]Observation, primed)
		for i := range prime {
			x := make([]int, len(cards))
			for d, c := range cards {
				x[d] = pick.Intn(c)
			}
			prime[i] = Observation{X: x, Loss: randLoss()}
		}

		run := rand.New(rand.NewSource(seed))
		tpe := NewTPE(cards, run, opts)
		if err := tpe.Prime(prime); err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunContext(context.Background(), tpe, n, func([]int) float64 { return randLoss() }); err != nil {
			t.Fatal(err)
		}
		skip := rand.New(rand.NewSource(seed))
		SkipSuggestions(skip, cards, opts, primed, n)
		for k := 0; k < 3; k++ {
			if a, b := run.Int63(), skip.Int63(); a != b {
				t.Fatalf("trial %d (cards %v, opts %+v, primed %d, n %d): streams diverge", trial, cards, opts, primed, n)
			}
		}
	}
}

// SkipSuggestions follows Intn's rejection sampling too: with a cardinality
// where a quarter of raw draws are rejected, the skipped generator still
// lands where the real run's does.
func TestSkipSuggestionsFollowsIntnRejection(t *testing.T) {
	cards := []int{3 << 29, 7}
	opts := TPEOptions{NumStartup: 100} // every suggestion takes the random branch
	realSrc := &drawCounter{src: rand.NewSource(3)}
	tpe := NewTPE(cards, rand.New(realSrc), opts)
	if _, _, err := RunContext(context.Background(), tpe, 60, func([]int) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if realSrc.n <= 60*len(cards) {
		t.Fatalf("%d draws for %d Intn calls: no rejection exercised", realSrc.n, 60*len(cards))
	}
	skipSrc := &drawCounter{src: rand.NewSource(3)}
	SkipSuggestions(rand.New(skipSrc), cards, opts, 0, 60)
	if skipSrc.n != realSrc.n {
		t.Fatalf("skip drew %d values, the run %d", skipSrc.n, realSrc.n)
	}
}

// SkipSuggestions allocates nothing, whichever branch it walks.
func TestSkipSuggestionsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cards := []int{5, 9, 2}
	if a := testing.AllocsPerRun(20, func() { SkipSuggestions(rng, cards, TPEOptions{}, 0, 40) }); a != 0 {
		t.Fatalf("SkipSuggestions allocated %v times per call", a)
	}
}
