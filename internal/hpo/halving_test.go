package hpo

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// each lifts a per-configuration loss into a rung-level batch evaluation.
func each(eval func(x []int, fidelity float64) float64) func([][]int, float64) []float64 {
	return func(xs [][]int, fidelity float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = eval(x, fidelity)
		}
		return out
	}
}

func TestSuccessiveHalvingFindsGoodPoint(t *testing.T) {
	cards := []int{21, 21}
	// Noisy at low fidelity, exact at fidelity 1.
	eval := func(x []int, fidelity float64) float64 {
		d0 := float64(x[0]) - 10
		d1 := float64(x[1]) - 10
		loss := d0*d0 + d1*d1
		noise := (1 - fidelity) * 20
		return loss + noise*0.5
	}
	best, err := SuccessiveHalvingBatch(context.Background(), cards, rand.New(rand.NewSource(1)), 64, 3, each(eval))
	if err != nil {
		t.Fatal(err)
	}
	// Best of 64 uniform under halving should land near the optimum.
	if best.Loss > 30 {
		t.Fatalf("best loss = %v", best.Loss)
	}
}

func TestSuccessiveHalvingValidation(t *testing.T) {
	if _, err := SuccessiveHalvingBatch(context.Background(), []int{2}, rand.New(rand.NewSource(1)), 0, 3, nil); err == nil {
		t.Fatal("n=0 should fail")
	}
}

func TestSuccessiveHalvingSingleCandidate(t *testing.T) {
	evals := 0
	best, err := SuccessiveHalvingBatch(context.Background(), []int{3}, rand.New(rand.NewSource(1)), 1, 3,
		each(func(x []int, f float64) float64 { evals++; return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	if best.Loss != 1 || evals == 0 {
		t.Fatalf("best = %+v, evals = %d", best, evals)
	}
}

func TestSuccessiveHalvingFidelityIncreases(t *testing.T) {
	var fidelities []float64
	_, err := SuccessiveHalvingBatch(context.Background(), []int{4}, rand.New(rand.NewSource(2)), 9, 3,
		each(func(x []int, f float64) float64 {
			fidelities = append(fidelities, f)
			return float64(x[0])
		}))
	if err != nil {
		t.Fatal(err)
	}
	last := fidelities[len(fidelities)-1]
	if last != 1 {
		t.Fatalf("final fidelity = %v, want 1", last)
	}
	for i := 1; i < len(fidelities); i++ {
		if fidelities[i] < fidelities[i-1] {
			t.Fatal("fidelity should be non-decreasing")
		}
	}
}

func TestSuccessiveHalvingDefaultEta(t *testing.T) {
	if _, err := SuccessiveHalvingBatch(context.Background(), []int{2}, rand.New(rand.NewSource(1)), 4, 0,
		each(func(x []int, f float64) float64 { return 0 })); err != nil {
		t.Fatal(err)
	}
}

func TestSuccessiveHalvingCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SuccessiveHalvingBatch(ctx, []int{4}, rand.New(rand.NewSource(1)), 16, 3,
		each(func(x []int, f float64) float64 { return 0 }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSuccessiveHalvingCancelMidBracket(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	_, err := SuccessiveHalvingBatch(ctx, []int{4}, rand.New(rand.NewSource(1)), 27, 3,
		each(func(x []int, f float64) float64 {
			evals++
			if evals == 5 {
				cancel()
			}
			return float64(x[0])
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The first rung has 27 configurations; a cancellation inside it must
	// stop the bracket at the rung boundary, before any later rung runs.
	if evals > 27 {
		t.Fatalf("ran %d evaluations after cancellation", evals)
	}
}
