package feataug

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// substream is the reference for a search's generator: cfg.Seed's stream
// replayed from its start to position at, the state the engine's shared
// generator had there.
func (e *Engine) substream(at int64) (*rand.Rand, *countingSource) {
	src := newCountingSource(e.cfg.Seed)
	for src.n < at {
		src.Int63()
	}
	return rand.New(src), src
}

// A clone continues the shared stream bit for bit, for 10^5 draws through
// every Rand method the search uses, as the replayed substream does, and
// the clone and its source draw independently of each other.
func TestCloneContinuesSharedStream(t *testing.T) {
	e := smallEngine(t, Config{Seed: 5})
	for i := 0; i < 1000; i++ {
		e.rng.Intn(7)
		e.rng.Float64()
	}
	at := e.src.n
	c := e.src.clone()
	if c.n != at {
		t.Fatalf("clone at %d reports position %d", at, c.n)
	}
	for i := 0; i < 10; i++ {
		e.rng.Int63()
	}
	cr := rand.New(c)
	ref, _ := e.substream(at)
	for k := 0; k < 100000; k++ {
		var a, b int64
		switch k % 3 {
		case 0:
			a, b = cr.Int63(), ref.Int63()
		case 1:
			a, b = int64(cr.Intn(300)), int64(ref.Intn(300))
		case 2:
			a, b = int64(math.Float64bits(cr.Float64())), int64(math.Float64bits(ref.Float64()))
		}
		if a != b {
			t.Fatalf("draw %d after position %d: clone %d, replay %d", k, at, a, b)
		}
	}
	if e.src.n != at+10 {
		t.Fatalf("drawing from the clone moved the source to %d, want %d", e.src.n, at+10)
	}
}

// A substream at position k continues exactly where the shared generator is
// after k draws, whichever Rand methods made them.
func TestSubstreamContinuesSharedStream(t *testing.T) {
	e := smallEngine(t, Config{Seed: 5})
	for i := 0; i < 100; i++ {
		e.rng.Intn(7)
		e.rng.Float64()
	}
	at := e.src.n
	sub, src := e.substream(at)
	if src.n != at {
		t.Fatalf("substream at %d reports position %d", at, src.n)
	}
	for k := 0; k < 5; k++ {
		if a, b := e.rng.Int63(), sub.Int63(); a != b {
			t.Fatalf("draw %d after position %d: shared %d, substream %d", k, at, a, b)
		}
	}
}

// runSplit runs every search from its scheduled start and leaves the shared
// generator where running them one after another would.
func TestRunSplitMatchesSequentialDraws(t *testing.T) {
	draws := []int{3, 0, 11, 5}
	seq := rand.New(rand.NewSource(9))
	var want [][]int64
	for _, d := range draws {
		var got []int64
		for k := 0; k < d; k++ {
			got = append(got, seq.Int63())
		}
		want = append(want, got)
	}
	e := smallEngine(t, Config{Seed: 9})
	got := make([][]int64, len(draws))
	err := e.runSplit(context.Background(), len(draws), func(i int) {
		for k := 0; k < draws[i]; k++ {
			e.rng.Int63()
		}
	}, func(i int, rng *rand.Rand) error {
		for k := 0; k < draws[i]; k++ {
			got[i] = append(got[i], rng.Int63())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range draws {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("search %d draw %d: %d, sequential %d", i, k, got[i][k], want[i][k])
			}
		}
	}
	if a, b := e.rng.Int63(), seq.Int63(); a != b {
		t.Fatal("shared generator not left where the sequential searches end")
	}
}

// A search that draws off its schedule fails the run, unless the context was
// cancelled, which is then what the run reports.
func TestRunSplitFailsClosedOnDrift(t *testing.T) {
	e := smallEngine(t, Config{Seed: 9})
	skip := func(int) { e.rng.Int63() }
	drift := func(_ int, rng *rand.Rand) error {
		rng.Int63()
		rng.Int63()
		return nil
	}
	err := e.runSplit(context.Background(), 2, skip, drift)
	if err == nil || !strings.Contains(err.Error(), "schedule") {
		t.Fatalf("err = %v, want a schedule drift error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	short := func(int, *rand.Rand) error {
		cancel() // the search stops early, as a cancelled TPE loop does
		return nil
	}
	if err := e.runSplit(ctx, 1, skip, short); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
