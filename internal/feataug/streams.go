package feataug

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

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

// clone returns a source at s's position that continues s's stream draw for
// draw, independently of s. rand.NewSource's generator state is an
// unexported struct of plain values, so a shallow copy through reflect is a
// full copy.
func (s *countingSource) clone() *countingSource {
	v := reflect.ValueOf(s.src).Elem()
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	return &countingSource{src: c.Interface().(rand.Source), n: s.n}
}

// runSplit runs n searches that would otherwise draw from the engine's
// shared generator one after another, concurrently and with the same draws.
// The TPE draw schedule depends on iteration and observation counts only,
// never on losses, so skip(i) can advance e.rng exactly as search i would
// without evaluating anything. Walking every skip in order clones the source
// where each search starts and leaves e.rng where the last one would have
// left it; run(i, rng) then gets a generator over search i's clone. A search
// that ends anywhere but the next one's start would have drawn differently
// from the sequential engine, so runSplit fails closed on it. Under
// GOMAXPROCS=1 (or cfg.parallel 1) the searches run inline, in order.
func (e *Engine) runSplit(ctx context.Context, n int, skip func(i int), run func(i int, rng *rand.Rand) error) error {
	starts := make([]int64, n+1)
	srcs := make([]*countingSource, n)
	for i := range srcs {
		starts[i] = e.src.n
		srcs[i] = e.src.clone()
		skip(i)
	}
	starts[n] = e.src.n
	return par.ForEachCtx(ctx, e.cfg.parallel, n, func(i int) error {
		src := srcs[i]
		if err := run(i, rand.New(src)); err != nil {
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
