package query

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// TestExecutorConcurrentUse drives one shared Executor from many goroutines
// — mixed single-query and batch entry points over a shared query pool — so
// the race detector can see the group-index, predicate-bitmap and join-index
// caches under contention. Results are cross-checked against a sequential
// baseline executor.
func TestExecutorConcurrentUse(t *testing.T) {
	r := largeRandomTable(400, 42)
	d := largeRandomTable(150, 43)
	tpl := Template{
		Funcs:     agg.Basic(),
		AggAttrs:  []string{"x", "ts"},
		PredAttrs: []string{"cat", "flag", "x"},
		Keys:      []string{"k1", "k2"},
	}
	s, err := BuildSpace(r, tpl, SpaceOptions{NumGridPoints: 4, MaxCategories: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var pool []Query
	for i := 0; i < 40; i++ {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, q)
	}

	// Sequential baseline.
	base := NewExecutor(r)
	baseVals := make([][]float64, len(pool))
	baseValid := make([][]bool, len(pool))
	for i, q := range pool {
		v, ok, err := base.AugmentValues(d, q)
		if err != nil {
			t.Fatal(err)
		}
		baseVals[i], baseValid[i] = v, ok
	}

	shared := NewExecutor(r)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Even workers run batches, odd workers hammer single queries,
			// all through the same caches.
			if w%2 == 0 {
				vals, valid, err := shared.AugmentValuesBatch(d, pool)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range pool {
					for row := range vals[i] {
						if vals[i][row] != baseVals[i][row] || valid[i][row] != baseValid[i][row] {
							t.Errorf("worker %d query %d row %d diverged", w, i, row)
							return
						}
					}
				}
			} else {
				for i := w; i < len(pool); i += 3 {
					v, ok, err := shared.AugmentValues(d, pool[i])
					if err != nil {
						errs[w] = err
						return
					}
					for row := range v {
						if v[row] != baseVals[i][row] || ok[row] != baseValid[i][row] {
							t.Errorf("worker %d query %d row %d diverged", w, i, row)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestSpaceCacheConcurrentUse builds overlapping template spaces from many
// goroutines; the per-attribute domain cache and the whole-space cache must
// be race-free and converge to identical spaces.
func TestSpaceCacheConcurrentUse(t *testing.T) {
	r := largeRandomTable(300, 7)
	cache := NewSpaceCache(r, SpaceOptions{NumGridPoints: 4, MaxCategories: 5})
	attrs := []string{"cat", "flag", "x", "ts"}
	templates := make([]Template, 0, len(attrs)*len(attrs))
	for _, a := range attrs {
		for _, b := range attrs {
			pred := []string{a}
			if a != b {
				pred = append(pred, b)
			}
			templates = append(templates, Template{
				Funcs: agg.Basic(), AggAttrs: []string{"x"},
				PredAttrs: pred, Keys: []string{"k1"},
			})
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	spaces := make([][]*Space, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spaces[w] = make([]*Space, len(templates))
			for i, tpl := range templates {
				s, err := cache.Space(tpl)
				if err != nil {
					errs[w] = err
					return
				}
				spaces[w][i] = s
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range templates {
			// Cached spaces are shared pointers, so every worker must see the
			// same instance per template layout.
			if spaces[w][i] != spaces[0][i] {
				t.Fatalf("worker %d template %d got a different space instance", w, i)
			}
		}
	}
}

// TestExecutorBatchCancellation asserts a cancelled context aborts batch
// execution with the context error.
func TestExecutorBatchCancellation(t *testing.T) {
	r := largeRandomTable(200, 5)
	d := largeRandomTable(80, 6)
	q := Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}
	qs := make([]Query, 64)
	for i := range qs {
		qs[i] = q
	}
	ex := NewExecutor(r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ex.AugmentValuesBatchContext(ctx, d, qs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := ex.ExecuteBatchContext(ctx, qs, "f"); !errors.Is(err, context.Canceled) {
		t.Fatalf("execute err = %v, want context.Canceled", err)
	}
	if _, err := ex.AugmentBatchContext(ctx, d, qs, "f"); !errors.Is(err, context.Canceled) {
		t.Fatalf("augment err = %v, want context.Canceled", err)
	}
}

// TestJoinIndexCacheBounded feeds one executor a stream of distinct batch
// tables (the Transformer serving pattern) and asserts it keeps one join
// entry per key-set — the last training table's — with every pass equal to
// the Query.Augment oracle. It then alternates two tables: each switch must
// rebuild the join (one JoinMisses), and a repeat of the current table must
// hit, so an executor that kept earlier tables' entries fails.
func TestJoinIndexCacheBounded(t *testing.T) {
	r := largeRandomTable(120, 11)
	ex := NewExecutor(r)
	q := Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}
	augment := func(d *dataframe.Table) {
		t.Helper()
		v, ok, err := ex.AugmentValues(d, q)
		if err != nil {
			t.Fatal(err)
		}
		wantV, wantOK := oracleFeature(t, q, d, r)
		sameFeature(t, "join pass", v, wantV, ok, wantOK)
	}
	for batch := 0; batch < 192; batch++ {
		augment(largeRandomTable(20, int64(batch)))
	}
	ex.mu.Lock()
	n := len(ex.joins)
	ex.mu.Unlock()
	if n > 1 {
		t.Fatalf("executor holds %d join entries, want at most 1 (one key-set)", n)
	}

	a, b := largeRandomTable(20, 1001), largeRandomTable(20, 1002)
	for i := 0; i < 6; i++ {
		d := a
		if i%2 == 1 {
			d = b
		}
		before := ex.Stats()
		augment(d)
		augment(d)
		after := ex.Stats()
		if got := after.JoinMisses - before.JoinMisses; got != 1 {
			t.Fatalf("switch %d: %d join misses, want 1", i, got)
		}
		if got := after.JoinHits - before.JoinHits; got != 1 {
			t.Fatalf("switch %d: %d join hits on the repeat pass, want 1", i, got)
		}
	}
}
