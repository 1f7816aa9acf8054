package query

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// deltaTable builds the delta suite's base table: the differential schema plus
// a small-domain int column ("lvl", 0..9) so the integer range kernel and the
// counting-sort path participate in the append sweeps.
func deltaTable(n int, seed int64) *dataframe.Table {
	return deltaRows(n, seed, "base")
}

// deltaRows generates n rows of the delta schema. Modes shape the delta:
//
//	base       the mixed distribution the base table uses
//	mixed      same distribution (in-domain appends: stable dictionaries)
//	nulls      NULL-heavy x and cat
//	newgroups  unseen k1 values, ts and lvl beyond their observed domains
//	            (new groups; lvl's counting domain widens in place)
//	dictshift  a cat value sorting inside the existing dictionary domain
//	            (forces a re-encode: codes shift) and negative lvl values
//	            (lvl's counting base follows the minimum down)
//	dictcap    over MaxDictCardinality distinct cat values (the dictionary
//	            drops) and lvl values widening its counting domain to
//	            ~1000 values, still under the cap
func deltaRows(n int, seed int64, mode string) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	k2 := make([]string, n)
	x := make([]float64, n)
	xValid := make([]bool, n)
	cat := make([]string, n)
	catValid := make([]bool, n)
	flag := make([]bool, n)
	ts := make([]int64, n)
	lvl := make([]int64, n)
	lvlValid := make([]bool, n)
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(20))
		k2[i] = cats[rng.Intn(3)]
		x[i] = rng.NormFloat64() * 100
		xValid[i] = rng.Float64() > 0.1
		cat[i] = cats[rng.Intn(len(cats))]
		catValid[i] = rng.Float64() > 0.1
		flag[i] = rng.Float64() > 0.5
		ts[i] = int64(rng.Intn(100000))
		lvl[i] = int64(rng.Intn(10))
		lvlValid[i] = rng.Float64() > 0.05
		switch mode {
		case "nulls":
			xValid[i] = rng.Float64() > 0.9
			catValid[i] = rng.Float64() > 0.9
			lvlValid[i] = rng.Float64() > 0.9
		case "newgroups":
			k1[i] = 100 + int64(rng.Intn(10))
			ts[i] = 200000 + int64(rng.Intn(1000))
			lvl[i] = 200 + int64(rng.Intn(10))
		case "dictshift":
			cat[i] = "a0" // sorts between "a" and "b": re-encode shifts codes
			lvl[i] = -5 + int64(rng.Intn(5))
		case "dictcap":
			cat[i] = fmt.Sprintf("v%04d", i)
			catValid[i] = true
			lvl[i] = 300 + int64(rng.Intn(700))
		}
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("x", x, xValid),
		dataframe.NewStringColumn("cat", cat, catValid),
		dataframe.NewBoolColumn("flag", flag, nil),
		dataframe.NewTimeColumn("ts", ts, nil),
		dataframe.NewIntColumn("lvl", lvl, lvlValid),
	)
}

// deltaQueryPool decodes nq deterministic random queries over the delta
// schema, spanning every aggregation function, predicate kind and key subset.
func deltaQueryPool(t testing.TB, r *dataframe.Table, nq int, seed int64) []Query {
	t.Helper()
	tpl := Template{
		Funcs:     agg.All(),
		AggAttrs:  []string{"x", "cat", "ts", "lvl"},
		PredAttrs: []string{"cat", "flag", "x", "ts", "lvl"},
		Keys:      []string{"k1", "k2"},
	}
	s, err := BuildSpace(r, tpl, SpaceOptions{NumGridPoints: 5, MaxCategories: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, nq)
	for i := range qs {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// TestDeltaDifferential enforces delta maintenance: after every append, a
// delta-maintained executor and a from-scratch executor over the concatenated
// rows must return row-for-row identical batches. The sweep covers append
// sizes 1, 7, a morsel-boundary batch and a multi-morsel batch (morsel size
// 64), NULL-heavy deltas, deltas creating new groups and widening integer
// domains, a dictionary re-encode (mid-domain value) and a
// dictionary-cardinality-cap crossing. Only the last two drop caches
// wholesale (FullRebuilds).
func TestDeltaDifferential(t *testing.T) {
	scenarios := []struct {
		name    string
		mode    string
		sizes   []int
		rebuild bool // a dictionary re-encode drops the code-keyed caches
	}{
		// Base 400 + 48 = 448 = 7×64: exactly morsel-aligned, then +1 starts
		// a fresh word and morsel, then a multi-morsel batch.
		{"mixed", "mixed", []int{48, 1, 7, 200}, false},
		{"null-heavy", "nulls", []int{7, 64}, false},
		{"new-groups", "newgroups", []int{1, 7, 64}, false},
		{"dict-shift", "dictshift", []int{1, 7}, true},
		{"dict-cap", "dictcap", []int{1100}, true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			const nBase = 400
			seed := int64(500)
			qs := deltaQueryPool(t, deltaTable(nBase, seed), 60, seed+1)

			exDelta := NewExecutor(deltaTable(nBase, seed), withMorselRows(64))
			parts := []*dataframe.Table{deltaTable(nBase, seed)}

			check := func(round string) {
				got, err := exDelta.AugmentMatrix(context.Background(), exDelta.Table(), qs)
				if err != nil {
					t.Fatalf("%s: delta: %v", round, err)
				}
				ref, err := dataframe.Concat(parts...)
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				fresh, err := NewExecutor(ref, withMorselRows(64)).AugmentMatrix(context.Background(), ref, qs)
				if err != nil {
					t.Fatalf("%s: fresh: %v", round, err)
				}
				sameMatrix(t, round+" delta-vs-fresh", got, fresh, qs)
			}

			check("cold")
			for bi, size := range sc.sizes {
				bseed := seed + 100 + int64(bi)
				if _, _, err := Append(exDelta.Table(), deltaRows(size, bseed, sc.mode)); err != nil {
					t.Fatal(err)
				}
				parts = append(parts, deltaRows(size, bseed, sc.mode))
				check(fmt.Sprintf("append %d (+%d rows)", bi, size))
				// A second batch on the advanced caches: served aggregate
				// state must equal freshly scanned state bit for bit.
				check(fmt.Sprintf("append %d warm", bi))
			}
			if exDelta.Stats().DeltaAppends != int64(len(sc.sizes)) {
				t.Errorf("delta executor absorbed %d appends, want %d",
					exDelta.Stats().DeltaAppends, len(sc.sizes))
			}
			if got := exDelta.Stats().FullRebuilds; (got > 0) != sc.rebuild {
				t.Errorf("delta executor counted %d full rebuilds, want rebuilds %v", got, sc.rebuild)
			}
		})
	}
}

// TestDeltaAugmentDifferential covers the join/scatter side after appends: the
// training-table features a delta-advanced executor serves must be
// bit-identical to a from-scratch executor's, including groups that exist only
// in the delta (join misses before, hits after).
func TestDeltaAugmentDifferential(t *testing.T) {
	const nBase = 300
	seed := int64(700)
	qs := deltaQueryPool(t, deltaTable(nBase, seed), 40, seed+1)
	var k1 []int64
	var k2 []string
	for i := int64(0); i < 25; i++ {
		k1 = append(k1, i*5) // covers base groups and "newgroups" delta groups
		k2 = append(k2, []string{"a", "b", "c"}[i%3])
	}
	d := dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
	)
	ex := NewExecutor(deltaTable(nBase, seed), withMorselRows(64))
	parts := []*dataframe.Table{deltaTable(nBase, seed)}
	if _, err := ex.AugmentMatrix(context.Background(), d, qs); err != nil {
		t.Fatal(err) // warm the caches pre-append
	}
	for bi, mode := range []string{"mixed", "newgroups", "nulls"} {
		bseed := seed + 50 + int64(bi)
		if _, _, err := Append(ex.Table(), deltaRows(40, bseed, mode)); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, deltaRows(40, bseed, mode))
		got, err := ex.AugmentMatrix(context.Background(), d, qs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := dataframe.Concat(parts...)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewExecutor(ref, withMorselRows(64)).AugmentMatrix(context.Background(), d, qs)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, fmt.Sprintf("append %d", bi), got, fresh, qs)
	}
}

// TestDeltaShardedDifferential routes appends to interleaved partitions of
// one table — batch row i lands on partition (table row index mod k) — and
// requires every partition's executor, joined onto its own partition
// (checkGroups), to match the Query.Augment oracle over the partition's grown
// rows, for k in {1, 3}.
func TestDeltaShardedDifferential(t *testing.T) {
	for _, k := range []int{1, 3} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			const nBase = 300
			seed := int64(900 + k)
			full := deltaTable(nBase, seed)
			qs := deltaQueryPool(t, full, 40, seed+1)

			exs := make([]*Executor, k)
			pieces := make([][]*dataframe.Table, k) // per partition, for Concat
			for j, rows := range interleavedParts(nBase, k) {
				exs[j] = NewExecutor(full.Take(rows), withMorselRows(64))
				pieces[j] = []*dataframe.Table{full.Take(rows)}
			}

			check := func(round string) {
				for j, ex := range exs {
					ref, err := dataframe.Concat(pieces[j]...)
					if err != nil {
						t.Fatal(err)
					}
					checkGroups(t, fmt.Sprintf("%s part %d", round, j), ex, qs, ref)
				}
			}

			check("cold")
			n := nBase
			for bi, size := range []int{1, 9, 64} {
				batch := deltaRows(size, seed+20+int64(bi), "mixed")
				routed := make([][]int, k)
				for i := 0; i < size; i++ {
					routed[(n+i)%k] = append(routed[(n+i)%k], i)
				}
				n += size
				for j, idx := range routed {
					if len(idx) == 0 {
						continue
					}
					if _, _, err := Append(exs[j].Table(), batch.Take(idx)); err != nil {
						t.Fatal(err)
					}
					pieces[j] = append(pieces[j], batch.Take(idx))
				}
				check(fmt.Sprintf("append %d (+%d rows)", bi, size))
			}
		})
	}
}

// TestDeltaStatsGolden pins the delta counters on a deterministic scenario,
// and that a warm batch with no intervening append serves every aggregate from
// retained state (no new fused scans). An in-domain append advances in place;
// a mid-domain dictionary value is the one remaining full rebuild.
func TestDeltaStatsGolden(t *testing.T) {
	qs := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}},
		{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"}},
	}
	ex := NewExecutor(deltaTable(256, 3), withMorselRows(64))
	if _, err := ex.AugmentMatrix(context.Background(), ex.Table(), qs); err != nil {
		t.Fatal(err)
	}
	cold := ex.Stats()
	if cold.DeltaAppends != 0 || cold.FullRebuilds != 0 || cold.DeltaRowsScanned != 0 {
		t.Fatalf("cold delta counters = %d/%d/%d, want 0/0/0",
			cold.DeltaAppends, cold.DeltaRowsScanned, cold.FullRebuilds)
	}
	if _, err := ex.AugmentMatrix(context.Background(), ex.Table(), qs); err != nil {
		t.Fatal(err)
	}
	warm := ex.Stats()
	if warm.FusedScans != cold.FusedScans {
		t.Errorf("warm batch ran %d new fused scans, want 0 (served from retained state)",
			warm.FusedScans-cold.FusedScans)
	}
	if _, _, err := Append(ex.Table(), deltaRows(5, 99, "mixed")); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.AugmentMatrix(context.Background(), ex.Table(), qs); err != nil {
		t.Fatal(err)
	}
	s := ex.Stats()
	if s.DeltaAppends != 1 {
		t.Errorf("DeltaAppends = %d, want 1", s.DeltaAppends)
	}
	if s.FullRebuilds != 0 {
		t.Errorf("FullRebuilds = %d, want 0", s.FullRebuilds)
	}
	if s.DeltaRowsScanned == 0 {
		t.Error("DeltaRowsScanned = 0, want > 0 (plan and state advances visit delta rows)")
	}
	if s.DirtyGroupResorts == 0 {
		t.Error("DirtyGroupResorts = 0, want > 0 (median state re-sorts dirty groups)")
	}
	if s.FusedScans != warm.FusedScans {
		t.Errorf("post-append batch ran %d new fused scans, want 0 (state advanced in place)",
			s.FusedScans-warm.FusedScans)
	}

	// A cat predicate puts cat's dictionary in the core; one appended
	// mid-domain value ("a0", between "a" and "b") re-encodes it and shifts
	// codes, so the code-keyed caches and the executor's plans drop. "a0"
	// takes the code "b" had, so a kept plan would answer cat = 'a0' with
	// cat = 'b' rows.
	catQuery := func(fn agg.Func, v string) Query {
		return Query{Agg: fn, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: v}}}
	}
	shiftQs := []Query{catQuery(agg.Sum, "b"), catQuery(agg.Median, "b")}
	exS := NewExecutor(deltaTable(256, 3), withMorselRows(64))
	if _, err := exS.AugmentMatrix(context.Background(), exS.Table(), shiftQs); err != nil {
		t.Fatal(err)
	}
	before := exS.Stats()
	if _, _, err := Append(exS.Table(), deltaRows(1, 99, "dictshift")); err != nil {
		t.Fatal(err)
	}
	shiftQs = append(shiftQs, catQuery(agg.Sum, "a0"), catQuery(agg.Median, "a0"))
	ref, err := dataframe.Concat(deltaTable(256, 3), deltaRows(1, 99, "dictshift"))
	if err != nil {
		t.Fatal(err)
	}
	checkGroups(t, "dict-shift", exS, shiftQs, ref)
	ss := exS.Stats()
	if ss.DeltaAppends != 1 || ss.FullRebuilds != 1 {
		t.Errorf("dict-shift DeltaAppends/FullRebuilds = %d/%d, want 1/1", ss.DeltaAppends, ss.FullRebuilds)
	}
	if ss.PlanMisses != before.PlanMisses+2 || ss.PlanHits != before.PlanHits {
		t.Errorf("dict-shift plans %d/%d -> %d/%d (hit/miss), want both plans discovered afresh",
			before.PlanHits, before.PlanMisses, ss.PlanHits, ss.PlanMisses)
	}
}

// TestConcurrentAppendsVsScans races appends against in-flight shared scans:
// two executors over one table (so one core) run batches while the table
// grows underneath them through the epoch fence. Run under -race this is the
// fence's regression test; results after the dust settles must match the
// Query.Augment oracle over the final rows.
func TestConcurrentAppendsVsScans(t *testing.T) {
	const nBase = 500
	seed := int64(11)
	base := deltaTable(nBase, seed)
	qs := deltaQueryPool(t, base, 30, seed+1)
	ex1 := NewExecutor(base)
	ex2 := NewExecutor(base)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ex := range []*Executor{ex1, ex2} {
		ex := ex
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ex.AugmentMatrix(context.Background(), ex.Table(), qs); err != nil {
					t.Errorf("concurrent batch: %v", err)
					return
				}
			}
		}()
	}
	const nAppends = 8
	parts := []*dataframe.Table{deltaTable(nBase, seed)}
	for i := 0; i < nAppends; i++ {
		bseed := int64(100 + i)
		if _, _, err := Append(base, deltaRows(37, bseed, "mixed")); err != nil {
			t.Error(err)
		}
		parts = append(parts, deltaRows(37, bseed, "mixed"))
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	ref, err := dataframe.Concat(parts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []*Executor{ex1, ex2} {
		checkGroups(t, "settled", ex, qs, ref)
	}
}

// TestMaskAdvanceBytesFlat: advancing a cached WHERE mask over a 1-row append
// the mask selects allocates the same bytes on a 64k-row table as on a
// 2k-row one — the matched-row list grows in place by its delta, it is not
// rebuilt. Each size takes one warm-up append first, so the list has spare
// capacity the way a served table's does after its first append.
func TestMaskAdvanceBytesFlat(t *testing.T) {
	advanceBytes := func(n int) uint64 {
		tbl := deltaTable(n, 21)
		ex := NewExecutor(tbl)
		preds := []Predicate{
			{Attr: "cat", Kind: PredEq, StrValue: "a"},
			{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0},
		}
		me, err := ex.whereEntry(ex.maskSig(preds), preds)
		if err != nil {
			t.Fatal(err)
		}
		// matching returns the first 1-row delta from seed on that the mask
		// selects: cat "a" and a non-negative x.
		matching := func(seed int64) *dataframe.Table {
			for ; ; seed++ {
				r := deltaRows(1, seed, "mixed")
				cat, x := r.Column("cat"), r.Column("x")
				if !cat.IsNull(0) && cat.Str(0) == "a" && !x.IsNull(0) && x.Float(0) >= 0 {
					return r
				}
			}
		}
		advance := func(seed int64) uint64 {
			if err := tbl.AppendRows(matching(seed)); err != nil {
				t.Fatal(err)
			}
			for _, pe := range ex.core.preds {
				ex.advancePred(pe)
			}
			matched := len(me.rows)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ex.advanceMask(me)
			runtime.ReadMemStats(&after)
			if me.err != nil || me.nrows != tbl.NumRows() || len(me.rows) != matched+1 {
				t.Fatalf("mask advance: err %v, covers %d of %d rows, %d matched rows (want %d)",
					me.err, me.nrows, tbl.NumRows(), len(me.rows), matched+1)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		advance(1)
		if cap(me.rows) == len(me.rows) {
			t.Fatalf("%d rows: no spare row-list capacity after the warm-up append", n)
		}
		return advance(1000)
	}
	small, large := advanceBytes(2000), advanceBytes(64000)
	if large > small+1024 {
		t.Errorf("1-row mask advance allocated %d B at 64k rows vs %d B at 2k rows; want no growth with table size", large, small)
	}
}
