package query

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// compacted switches every eligible string column of a fresh table to
// code-backed storage and asserts at least one column actually compacted, so
// a sweep can never silently run raw-vs-raw.
func compacted(t *testing.T, tbl *dataframe.Table) *dataframe.Table {
	t.Helper()
	if n := tbl.Compact(); n == 0 {
		t.Fatal("Compact() compacted no columns; sweep would be vacuous")
	}
	return tbl
}

// TestDifferentialCompactStrings is the compact-storage contract: a table
// whose string columns are code-backed (no []string), queried through the
// code kernels, must match the oracle over the raw table bit for bit —
// across mixed and NULL-heavy tables and morsel sizes {1, 7}.
func TestDifferentialCompactStrings(t *testing.T) {
	builders := map[string]func(int, int64) *dataframe.Table{
		"mixed":     largeRandomTable,
		"nullheavy": nullHeavyTable,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			qs := randomPool(rng, 120)
			qs = append(qs,
				Query{Agg: agg.Median, AggAttr: "cat", Keys: []string{"k2"}},
				Query{Agg: agg.Mode, AggAttr: "cat", Keys: []string{"k2", "cat"}},
				Query{Agg: agg.CountDistinct, AggAttr: "cat", Keys: []string{"k1"}},
				Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
					Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
			)
			raw := build(500, 102)
			for _, morsel := range []int{1, 7, 0} {
				tbl := compacted(t, build(500, 102))
				opts := []ExecutorOption{}
				if morsel > 0 {
					opts = append(opts, withMorselRows(morsel))
				}
				e := NewExecutor(tbl, opts...)
				label := fmt.Sprintf("morsel=%d", morsel)
				checkGroups(t, label, e, qs, raw)
				// In-domain work must leave the columns compact.
				for _, cn := range []string{"k2", "cat"} {
					if !tbl.Column(cn).IsCompact() {
						t.Errorf("%s: column %q lost compact storage during the batch", label, cn)
					}
				}
				if st := e.Stats(); st.CodePredScans == 0 {
					t.Errorf("%s: CodePredScans = 0, want > 0 (encoded string columns present)", label)
				}
			}
		})
	}
}

// TestDifferentialCompactDelta sweeps the PR 9 append modes over a COMPACT
// base table: in-domain deltas keep the columns compact; a dict-shifting or
// cap-crossing delta rematerialises the strings first and then follows the
// raw fallback — in every case results must equal the oracle over the
// concatenated raw rows.
func TestDifferentialCompactDelta(t *testing.T) {
	scenarios := []struct {
		name         string
		mode         string
		sizes        []int
		staysCompact bool // cat column still compact after the appends
	}{
		{"mixed", "mixed", []int{48, 1, 7}, true},
		{"null-heavy", "nulls", []int{7, 64}, true},
		{"dict-shift", "dictshift", []int{1, 7}, false},
		{"dict-cap", "dictcap", []int{1100}, false},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			const nBase = 400
			seed := int64(1200)
			qs := deltaQueryPool(t, deltaTable(nBase, seed), 50, seed+1)

			base := compacted(t, deltaTable(nBase, seed))
			exDelta := NewExecutor(base, withMorselRows(64))
			parts := []*dataframe.Table{deltaTable(nBase, seed)}

			check := func(round string) {
				ref, err := dataframe.Concat(parts...)
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				checkGroups(t, round, exDelta, qs, ref)
			}

			check("cold")
			for bi, size := range sc.sizes {
				bseed := seed + 100 + int64(bi)
				if _, _, err := Append(exDelta.Table(), deltaRows(size, bseed, sc.mode)); err != nil {
					t.Fatal(err)
				}
				parts = append(parts, deltaRows(size, bseed, sc.mode))
				check(fmt.Sprintf("append %d (+%d rows)", bi, size))
				check(fmt.Sprintf("append %d warm", bi))
			}
			if got := base.Column("cat").IsCompact(); got != sc.staysCompact {
				t.Errorf("cat compact after %s appends = %v, want %v (rematerialise on dict fallback)",
					sc.mode, got, sc.staysCompact)
			}
			// k2 only ever sees in-domain values: compact throughout.
			if !base.Column("k2").IsCompact() {
				t.Error("k2 lost compact storage under in-domain appends")
			}
		})
	}
}

// TestDifferentialCompactSharded takes interleaved partitions of a compact
// table — k ∈ {1, 3}, each partition keeping codes over the whole table's
// domain — and runs their executors concurrently under -race against the
// Query.Augment oracle over raw copies of the same rows.
func TestDifferentialCompactSharded(t *testing.T) {
	d := dupKeyTrainTable(150, 131)
	rng := rand.New(rand.NewSource(132))
	qs := randomPool(rng, 50)
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			r := compacted(t, largeRandomTable(400, 130))
			parts := interleavedParts(r.NumRows(), k)
			ms := make([]*FeatureMatrix, len(parts))
			errs := make([]error, len(parts))
			var wg sync.WaitGroup
			for i, rows := range parts {
				part := r.Take(rows)
				if !part.Column("cat").IsCompact() {
					t.Fatal("Take of a compact column lost compact storage")
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ms[i], errs[i] = NewExecutor(part).AugmentMatrix(context.Background(), d, qs)
				}(i)
			}
			wg.Wait()
			raw := largeRandomTable(400, 130)
			for i, rows := range parts {
				if errs[i] != nil {
					t.Fatalf("part %d: %v", i, errs[i])
				}
				ref := raw.Take(rows)
				for qi, q := range qs {
					gotV, gotOK := ms[i].Col(qi)
					wantV, wantOK := oracleFeature(t, q, d, ref)
					sameFeature(t, fmt.Sprintf("k=%d part %d %s", k, i, q.SQL("r")),
						gotV, wantV, gotOK, wantOK)
				}
			}
		})
	}
}

// TestDifferentialCompactConcat checks query results over spliced compact
// tables: concatenating compact parts sharing one domain keeps the output
// compact (code-splice fast path) and queries over it must match the oracle
// over the raw concatenation of the same rows.
func TestDifferentialCompactConcat(t *testing.T) {
	partsRaw := []*dataframe.Table{
		largeRandomTable(300, 140),
		largeRandomTable(200, 141),
		largeRandomTable(100, 142),
	}
	var partsCompact []*dataframe.Table
	for i := range partsRaw {
		pc := compacted(t, largeRandomTable([]int{300, 200, 100}[i], int64(140+i)))
		partsCompact = append(partsCompact, pc)
	}
	refTbl, err := dataframe.Concat(partsRaw...)
	if err != nil {
		t.Fatal(err)
	}
	gotTbl, err := dataframe.Concat(partsCompact...)
	if err != nil {
		t.Fatal(err)
	}
	// Same 8-value cat domain in every seed: the splice fast path applies and
	// the output must still be compact.
	if !gotTbl.Column("cat").IsCompact() || !gotTbl.Column("k2").IsCompact() {
		t.Error("Concat of compact same-domain parts lost compact storage")
	}
	rng := rand.New(rand.NewSource(143))
	qs := randomPool(rng, 80)
	checkGroups(t, "concat", NewExecutor(gotTbl), qs, refTbl)
}

// TestCompactStatsGolden pins the counters on fixed workloads so the
// accounting cannot drift: each string-equality bitmap is one code-kernel
// scan, and COUNT queries — batched or single — are served with no value
// pass.
func TestCompactStatsGolden(t *testing.T) {
	qs := []Query{
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "b"}}},
	}
	e := NewExecutor(compacted(t, largeRandomTable(300, 91)))
	if _, err := e.AugmentMatrix(context.Background(), e.Table(), qs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CodePredScans != 2 {
		t.Errorf("CodePredScans = %d, want 2 (one per cat equality)", st.CodePredScans)
	}
	if st.CountOnlyQueries != 1 {
		t.Errorf("batch CountOnlyQueries = %d, want 1 (one COUNT in the batch)", st.CountOnlyQueries)
	}

	// A single-query COUNT is a batch of one: served from the plan's group
	// counts (CountOnlyQueries), and identical to the oracle.
	cq := Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"},
		Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "c"}}}
	checkGroups(t, "count", e, []Query{cq}, largeRandomTable(300, 91))
	if n := e.Stats().CountOnlyQueries; n != 2 {
		t.Errorf("CountOnlyQueries = %d, want 2", n)
	}
}
