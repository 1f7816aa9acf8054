package ml

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestGBDTConcurrentFitsMatchSequential fits problems of every task and of
// several sizes from 8 goroutines at once, each in its own order, so pooled
// growers of every size are taken, reused and returned concurrently. Every
// model must equal the one a sequential fit builds, bit for bit: predictions
// on the training and probe rows, and feature importances.
func TestGBDTConcurrentFitsMatchSequential(t *testing.T) {
	type problem struct {
		name string
		task Task
		opts GBDTOptions
		X    [][]float64
		y    []float64
	}
	rng := rand.New(rand.NewSource(36))
	var problems []problem
	for _, task := range []Task{Binary, Regression, MultiClass} {
		for k, n := range []int{2, 13, 90, 240} {
			p := 1 + k
			X, y := tieHeavyProblem(rng, task, n, p)
			problems = append(problems, problem{fmt.Sprintf("%v n=%d", task, n), task,
				GBDTOptions{NumRounds: 10, MaxDepth: 2 + k}, X, y})
		}
	}
	want := make([]*GBDT, len(problems))
	for i, pr := range problems {
		want[i] = NewGBDT(pr.task, pr.opts)
		if err := want[i].Fit(pr.X, pr.y); err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
	}
	const workers = 8
	got := make([][]*GBDT, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*GBDT, len(problems))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range problems {
				i := (k + 5*w) % len(problems)
				m := NewGBDT(problems[i].task, problems[i].opts)
				if err := m.Fit(problems[i].X, problems[i].y); err == nil {
					got[w][i] = m
				}
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, pr := range problems {
			what := fmt.Sprintf("worker %d, %s", w, pr.name)
			if got[w][i] == nil {
				t.Fatalf("%s: fit failed", what)
			}
			samePredictions(t, what, got[w][i], want[i], pr.X)
			samePredictions(t, what+" probe", got[w][i], want[i], probeRows(len(pr.X[0])))
			sameBits(t, what+" importance", got[w][i].FeatureImportance(), want[i].FeatureImportance())
		}
	}
}
