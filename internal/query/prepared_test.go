package query

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// preparedTrain is a training table over deltaTable's keys: base groups,
// groups only a "newgroups" delta creates (k1 >= 100), and a key no append
// ever creates, so prepared passes see join misses turn into hits.
func preparedTrain() *dataframe.Table {
	var k1 []int64
	var k2 []string
	for i := int64(0); i < 30; i++ {
		k1 = append(k1, []int64{i % 20, 100 + i%10, 999}[i%3])
		k2 = append(k2, []string{"a", "b", "c"}[i%3])
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
	)
}

// preparedPool is deltaQueryPool plus equalities whose dictionary codes a
// "dictshift" append moves: cat = 'a0' takes the old code of cat = 'b', so a
// held plan entry or partition keyed by a stale code would answer wrongly.
func preparedPool(t testing.TB, r *dataframe.Table, nq int, seed int64) []Query {
	qs := deltaQueryPool(t, r, nq, seed)
	for _, v := range []string{"b", "a0"} {
		qs = append(qs, Query{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: v}}})
	}
	return qs
}

// checkPrepared runs one pass of p against d and requires every column to
// equal Query.Augment of its query over the concatenation of parts.
func checkPrepared(t *testing.T, label string, p *Prepared, qs []Query, d *dataframe.Table, parts []*dataframe.Table) {
	t.Helper()
	m, err := p.AugmentMatrix(context.Background(), d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, err := dataframe.Concat(parts...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, q := range qs {
		gv, gok := m.Col(i)
		wv, wok := oracleFeature(t, q, d, ref)
		sameFeature(t, label+" "+q.SQL("r"), gv, wv, gok, wok)
	}
}

// TestPreparedMatchesOracle holds one Prepared across warm passes, an
// in-domain append, a dictionary re-encode, a cardinality-cap crossing and a
// plan-cache eviction forced by one-shot plans, and requires every pass to
// equal Query.Augment over the grown table. It also pins the reuse contract:
// a warm pass touches no group-index or mask entry and counts one plan hit
// per plan group; an in-domain append keeps the snapshot; a re-encode and an
// eviction raise the plan generation, and the next pass prepares again.
func TestPreparedMatchesOracle(t *testing.T) {
	const nBase = 300
	seed := int64(901)
	qs := preparedPool(t, deltaTable(nBase, seed), 30, seed+1)
	d := preparedTrain()
	ex := NewExecutor(deltaTable(nBase, seed), withMorselRows(64))
	parts := []*dataframe.Table{deltaTable(nBase, seed)}
	p, err := ex.Prepare(qs)
	if err != nil {
		t.Fatal(err)
	}
	checkPrepared(t, "cold", p, qs, d, parts)
	snap := p.snap.Load()
	if snap == nil {
		t.Fatal("a completed pass published no snapshot")
	}
	groups := int64(len(snap.groups))

	for pass := 0; pass < 2; pass++ {
		before := ex.Stats()
		checkPrepared(t, "warm", p, qs, d, parts)
		after := ex.Stats()
		if after.GroupHits != before.GroupHits || after.GroupMisses != before.GroupMisses ||
			after.MaskHits != before.MaskHits || after.MaskMisses != before.MaskMisses {
			t.Errorf("warm pass %d looked up group indexes or masks: groups %d/%d -> %d/%d, masks %d/%d -> %d/%d", pass,
				before.GroupHits, before.GroupMisses, after.GroupHits, after.GroupMisses,
				before.MaskHits, before.MaskMisses, after.MaskHits, after.MaskMisses)
		}
		if after.PlanHits != before.PlanHits+groups || after.PlanMisses != before.PlanMisses {
			t.Errorf("warm pass %d: plans %d/%d -> %d/%d, want %d more hits over %d groups", pass,
				before.PlanHits, before.PlanMisses, after.PlanHits, after.PlanMisses, groups, groups)
		}
		if p.snap.Load() != snap {
			t.Errorf("warm pass %d replaced a current snapshot", pass)
		}
	}

	appendRows := func(mode string, n int, bseed int64) {
		t.Helper()
		if _, _, err := Append(ex.Table(), deltaRows(n, bseed, mode)); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, deltaRows(n, bseed, mode))
	}

	// In-domain: entries advance in place, so the held snapshot stays.
	appendRows("mixed", 70, seed+10)
	checkPrepared(t, "in-domain append", p, qs, d, parts)
	if p.snap.Load() != snap {
		t.Error("an in-domain append replaced the snapshot")
	}
	appendRows("newgroups", 40, seed+11)
	checkPrepared(t, "new-group append", p, qs, d, parts)

	// Mid-domain value: the dictionary re-encodes, the plan map is wiped and
	// the generation rises, so the pass prepares again.
	gen, rebuilds := ex.planGen.Load(), ex.Stats().FullRebuilds
	appendRows("dictshift", 30, seed+12)
	checkPrepared(t, "mid-domain append", p, qs, d, parts)
	if ex.Stats().FullRebuilds == rebuilds || ex.planGen.Load() == gen {
		t.Errorf("mid-domain append: FullRebuilds %d -> %d, plan generation %d -> %d; want both to rise",
			rebuilds, ex.Stats().FullRebuilds, gen, ex.planGen.Load())
	}
	if p.snap.Load() == snap {
		t.Error("a pass after a re-encode reused the stale snapshot")
	}
	checkPrepared(t, "after re-encode", p, qs, d, parts)

	gen = ex.planGen.Load()
	appendRows("dictcap", dataframe.MaxDictCardinality+20, seed+13)
	checkPrepared(t, "cap-crossing append", p, qs, d, parts)
	if ex.planGen.Load() == gen {
		t.Error("a cap-crossing append left the plan generation unchanged")
	}

	// More distinct one-shot plans than the plan cache holds: the whole-map
	// drop raises the generation and the held batch prepares again.
	gen, evictions := ex.planGen.Load(), ex.Stats().Evictions
	for i := 0; i <= maxPlanEntries; i++ {
		q := Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "ts", Kind: PredRange, HasLo: true, Lo: float64(7 * i)}}}
		if _, err := ex.AugmentMatrix(context.Background(), d, []Query{q}); err != nil {
			t.Fatal(err)
		}
	}
	if ex.Stats().Evictions == evictions || ex.planGen.Load() == gen {
		t.Errorf("one-shot plans: evictions %d -> %d, plan generation %d -> %d; want both to rise",
			evictions, ex.Stats().Evictions, gen, ex.planGen.Load())
	}
	checkPrepared(t, "after eviction", p, qs, d, parts)
	// The re-prepared entries are back in the plan map, so the next append
	// advances them.
	appendRows("mixed", 65, seed+14)
	checkPrepared(t, "append after eviction", p, qs, d, parts)
}

// TestPrepareValidatesAndCopies: Prepare validates its batch up front and
// keeps its own copy of it; a pass validates the training table's join keys.
func TestPrepareValidatesAndCopies(t *testing.T) {
	r := deltaTable(100, 3)
	ex := NewExecutor(r)
	if _, err := ex.Prepare([]Query{{Agg: agg.Sum, AggAttr: "x"}}); err == nil {
		t.Error("Prepare accepted a query with no group-by keys")
	}
	if _, err := ex.Prepare([]Query{{Agg: agg.Sum, AggAttr: "nope", Keys: []string{"k1"}}}); err == nil {
		t.Error("Prepare accepted a missing aggregation column")
	}
	qs := []Query{{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}}
	p, err := ex.Prepare(qs)
	if err != nil {
		t.Fatal(err)
	}
	// The batch is copied: editing the caller's slice changes nothing.
	qs[0].AggAttr = "nope"
	checkPrepared(t, "copied batch", p, []Query{{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}},
		preparedTrain(), []*dataframe.Table{r})
	if _, err := p.AugmentMatrix(context.Background(), dataframe.MustNewTable(
		dataframe.NewIntColumn("other", []int64{1}, nil))); err == nil {
		t.Error("a pass accepted a training table without the join key")
	}
}

// TestPreparedWarmPassAllocs pins the allocations of one warm served pass at
// warmPassShape (12 plan groups over 3 key sets, 4-row request tables). It
// measured 187 when every plan group rebuilt its layout maps, copied the
// retained state and joined its key set on its own (320 at 24 groups), and
// 51 with the layout in the snapshot but a group index built over each
// request table. With request rows probed straight into the relevant index
// a pass makes 16, at 12 groups and at 24: the pass's 3 join entries (each
// the entry, its key columns and its row map), its output matrix and a few
// closures. The bound leaves a margin of 4. Doubling the plan groups on the
// same key sets may add at most one allocation per added group.
func TestPreparedWarmPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random, so allocation counts are not stable")
	}
	allocs := func(nGroups int) float64 {
		r, qs, reqs := warmPassShape(nGroups)
		p := warmPrepared(t, r, qs, reqs[0])
		i := 0
		return testing.AllocsPerRun(64, func() {
			i++
			if _, err := p.AugmentMatrix(context.Background(), reqs[i%len(reqs)]); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, doubled := allocs(12), allocs(24)
	t.Logf("warm pass: %v allocations at 12 plan groups, %v at 24", base, doubled)
	if base > 20 {
		t.Errorf("warm pass made %v allocations, want at most %d", base, 20)
	}
	if per := (doubled - base) / 12; per > 1 {
		t.Errorf("12 more plan groups on the same key sets added %v allocations per group (%v -> %v), want at most 1",
			per, base, doubled)
	}
}

// TestPreparedConcurrentJoins: a pass joins each of its key sets once,
// however many plan groups share it, and a pass over a request table no
// other pass uses hits no entry. N passes over N distinct request tables,
// first one after another and then split over 2 goroutines, each cost
// exactly N × key sets JoinMisses and no JoinHits, and every pass equals the
// Query.Augment oracle.
func TestPreparedConcurrentJoins(t *testing.T) {
	const keySets = 3
	r, qs, reqs := warmPassShape(12)
	warm, reqs := reqs[len(reqs)-1], reqs[:len(reqs)-1]
	type feature struct {
		vals  []float64
		valid []bool
	}
	want := make([][]feature, len(reqs))
	for i, d := range reqs {
		for _, q := range qs {
			v, ok := oracleFeature(t, q, d, r)
			want[i] = append(want[i], feature{v, ok})
		}
	}
	for _, workers := range []int{1, 2} {
		p := warmPrepared(t, r, qs, warm)
		before := p.e.Stats()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(reqs); i += workers {
					m, err := p.AugmentMatrix(context.Background(), reqs[i])
					if err != nil {
						errs[w] = err
						return
					}
					for j, f := range want[i] {
						gv, gok := m.Col(j)
						if !slices.Equal(gv, f.vals) || !slices.Equal(gok, f.valid) {
							errs[w] = fmt.Errorf("request %d: %s diverged from the oracle", i, qs[j].SQL("r"))
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%d goroutines: %v", workers, err)
			}
		}
		after := p.e.Stats()
		hits, misses := after.JoinHits-before.JoinHits, after.JoinMisses-before.JoinMisses
		if want := int64(len(reqs) * keySets); misses != want || hits != 0 {
			t.Errorf("%d goroutines: %d passes made %d join hits / %d misses, want 0 / %d",
				workers, len(reqs), hits, misses, want)
		}
	}
}
