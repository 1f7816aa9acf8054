package feataug

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/par"
)

// countingSource is the engine's random source: cfg.Seed's stream with a
// count of the values drawn from it, i.e. the stream position.
type countingSource struct {
	src rand.Source
	n   int64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed)}
}

func (s *countingSource) Int63() int64 { s.n++; return s.src.Int63() }

func (s *countingSource) Seed(seed int64) { s.src.Seed(seed); s.n = 0 }

// substream returns a fresh generator over cfg.Seed's stream advanced to
// position at: the state the engine's shared generator had there.
func (e *Engine) substream(at int64) (*rand.Rand, *countingSource) {
	src := newCountingSource(e.cfg.Seed)
	for src.n < at {
		src.Int63()
	}
	return rand.New(src), src
}

// runSplit runs n searches that would otherwise draw from the engine's
// shared generator one after another, concurrently and with the same draws.
// The TPE draw schedule depends on iteration and observation counts only,
// never on losses, so skip(i) can advance e.rng exactly as search i would
// without evaluating anything. Walking every skip in order records where
// each search starts and leaves e.rng where the last one would have left it;
// run(i, rng) then gets a generator positioned at search i's start. A search
// that ends anywhere but the next one's start would have drawn differently
// from the sequential engine, so runSplit fails closed on it. Under
// GOMAXPROCS=1 (or cfg.parallel 1) the searches run inline, in order.
func (e *Engine) runSplit(ctx context.Context, n int, skip func(i int), run func(i int, rng *rand.Rand) error) error {
	starts := make([]int64, n+1)
	for i := 0; i < n; i++ {
		starts[i] = e.src.n
		skip(i)
	}
	starts[n] = e.src.n
	return par.ForEachCtx(ctx, e.cfg.parallel, n, func(i int) error {
		rng, src := e.substream(starts[i])
		if err := run(i, rng); err != nil {
			return err
		}
		// A cancelled search stops early; report that, not the short stream.
		if err := ctx.Err(); err != nil {
			return err
		}
		if src.n != starts[i+1] {
			return fmt.Errorf("feataug: search %d of %d ended at draw %d, its schedule at %d", i, n, src.n, starts[i+1])
		}
		return nil
	})
}
