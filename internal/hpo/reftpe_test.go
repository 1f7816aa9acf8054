package hpo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refTPE is the surrogate branch as it stood before the incremental loss
// order: a stable sort of the whole history, fresh densities and a fresh
// vector per candidate on every suggestion. It is the test-local oracle
// FuzzTPEMatchesReference holds TPE to, suggestion for suggestion and draw
// for draw.
type refTPE struct {
	cards []int
	rng   *rand.Rand
	opts  TPEOptions
	obs   []Observation
}

func (t *refTPE) suggest() []int {
	if t.opts.randomBranch(len(t.obs)) {
		x := make([]int, len(t.cards))
		for i, c := range t.cards {
			x[i] = t.rng.Intn(c)
		}
		return x
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

func (t *refTPE) split() (good, bad []Observation) {
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

func (t *refTPE) fit(obs []Observation) [][]float64 {
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

func (t *refTPE) sampleFrom(dens [][]float64) []int {
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

// refTopK is TopK over a stable sort of a copy of the history.
func refTopK(h []Observation, k int) []Observation {
	h = slices.Clone(h)
	sort.SliceStable(h, func(a, b int) bool { return h[a].Loss < h[b].Loss })
	return h[:min(k, len(h))]
}

// fuzzLoss decodes a loss byte: NaN, ±Inf and -0 on four values, otherwise
// one of eight small values, so ties are common.
func fuzzLoss(b byte) float64 {
	switch b % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	}
	return float64(b % 8)
}

// FuzzTPEMatchesReference runs TPE and the reference side by side on one
// fuzz-chosen space (cardinalities 1 to 300), options and primed history,
// observing the same losses (tied, ±Inf, -0 and NaN among them). Every
// suggestion must be identical, both generators must sit at the same stream
// position after each one, and TopK must agree at the end. NaN losses are
// switched off when nanFree is odd, so long NaN-free histories exercise the
// incremental order alone. The seed corpus runs under plain `go test`.
func FuzzTPEMatchesReference(f *testing.F) {
	f.Add([]byte{4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(7), uint8(3), uint8(0), uint8(0), uint8(2), uint8(40), uint8(1), int64(1))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint16(299), uint8(1), uint8(24), uint8(1), uint8(5), uint8(60), uint8(0), int64(2))
	f.Add([]byte{21, 37, 53, 69, 85}, uint16(0), uint8(0), uint8(3), uint8(2), uint8(0), uint8(30), uint8(0), int64(3))
	f.Add([]byte{200, 17, 3, 3, 3, 3}, uint16(150), uint8(2), uint8(9), uint8(11), uint8(3), uint8(80), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, losses []byte, cardBase uint16, dims, cands, startup, primed, iters, nanFree uint8, seed int64) {
		cards := make([]int, 1+int(dims)%4)
		for d := range cards {
			cards[d] = 1 + (int(cardBase)+97*d)%300
		}
		opts := TPEOptions{
			Gamma:         []float64{0, 0.1, 0.15, 0.5, 0.9}[int(cands)%5],
			NumCandidates: int(cands) % 30,
			NumStartup:    int(startup) % 12,
			PriorWeight:   []float64{0, 0.5, 1, 0.1, 3}[int(startup)%5],
		}
		next := 0
		loss := func() float64 {
			if len(losses) == 0 {
				return 1
			}
			b := losses[next%len(losses)]
			next++
			if nanFree%2 == 1 && b%16 == 0 {
				b++
			}
			return fuzzLoss(b)
		}
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		var prime []Observation
		for i := 0; i < int(primed)%6; i++ {
			x := make([]int, len(cards))
			for d, c := range cards {
				x[d] = pick.Intn(c)
			}
			prime = append(prime, Observation{X: x, Loss: loss()})
		}

		gotSrc, wantSrc := &drawCounter{src: rand.NewSource(seed)}, &drawCounter{src: rand.NewSource(seed)}
		got := NewTPE(cards, rand.New(gotSrc), opts)
		want := &refTPE{cards: cards, rng: rand.New(wantSrc), opts: opts.normalized()}
		if err := got.Prime(prime); err != nil {
			t.Fatal(err)
		}
		want.obs = append(want.obs, prime...)
		for it := 0; it < int(iters)%100; it++ {
			g, w := got.Suggest(), want.suggest()
			if !slices.Equal(g, w) || (g == nil) != (w == nil) {
				t.Fatalf("suggestion %d: %v, reference %v", it, g, w)
			}
			if gotSrc.n != wantSrc.n {
				t.Fatalf("suggestion %d: %d draws, reference %d", it, gotSrc.n, wantSrc.n)
			}
			l := loss()
			got.Observe(Observation{X: g, Loss: l})
			want.obs = append(want.obs, Observation{X: w, Loss: l})
		}
		for _, k := range []int{0, 1, 3, len(want.obs) + 1} {
			g, w := TopK(got, k), refTopK(want.obs, k)
			if len(g) != len(w) {
				t.Fatalf("TopK(%d): %d observations, reference %d", k, len(g), len(w))
			}
			for i := range g {
				if !slices.Equal(g[i].X, w[i].X) || math.Float64bits(g[i].Loss) != math.Float64bits(w[i].Loss) {
					t.Fatalf("TopK(%d)[%d] = %v, reference %v", k, i, g[i], w[i])
				}
			}
		}
	})
}
