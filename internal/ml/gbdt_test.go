package ml

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestSortedOrdersOverBudget checks the memo once its budget is spent: a row
// set that is not kept is sorted into the slab's spare room, and neither that
// nor a later miss may disturb the orders of the row sets that were kept.
func TestSortedOrdersOverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	X, _ := tieHeavyProblem(rng, Binary, 60, 4)
	cols := columns(X)
	sets := [][]int{{}, {}, {}}
	for r := range X {
		sets[0] = append(sets[0], r)
		sets[1+r%2] = append(sets[1+r%2], r)
	}
	g := getGBGrower(NewGBDT(Binary, GBDTOptions{}), cols, len(X))
	defer g.release()
	g.budget = 0 // only the first row set, the root, is kept
	for _, k := range []int{0, 1, 2, 0, 2, 1, 0} {
		o := g.sortedOrders(sets[k])
		for j, col := range cols {
			if got, want := o.feature(j), refOrder(col, sets[k]); !slices.Equal(got, want) {
				t.Fatalf("row set %d, feature %d: order %v, want %v", k, j, got, want)
			}
		}
	}
	if len(g.entries) != 1 {
		t.Fatalf("memo holds %d row sets, want the root only", len(g.entries))
	}
}

// refOrder is feature col's sorted order of rows as the split scan wants it:
// slices.SortFunc's permutation, or nil when the sorted ends are equal.
func refOrder(col []float64, rows []int) []int32 {
	pairs := make([]valRow, len(rows))
	for k, r := range rows {
		pairs[k] = valRow{col[r], int32(r)}
	}
	slices.SortFunc(pairs, cmpValRow)
	if pairs[0].v == pairs[len(pairs)-1].v {
		return nil
	}
	perm := make([]int32, len(pairs))
	for k, e := range pairs {
		perm[k] = e.r
	}
	return perm
}
