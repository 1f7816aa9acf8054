package query

import (
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
// SWAR kernels, must match Query.Execute over the raw table bit for bit —
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
			want := oracleBatch(t, build(500, 102), qs, "feature")
			for _, morsel := range []int{1, 7, 0} {
				tbl := compacted(t, build(500, 102))
				opts := []ExecutorOption{}
				if morsel > 0 {
					opts = append(opts, WithMorselRows(morsel))
				}
				e := NewExecutor(tbl, opts...)
				got, err := e.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("morsel=%d", morsel)
				for i, q := range qs {
					sameTable(t, label+" "+q.SQL("r"), got[i], want[i])
				}
				// In-domain work must leave the columns compact.
				for _, cn := range []string{"k2", "cat"} {
					if !tbl.Column(cn).IsCompact() {
						t.Errorf("%s: column %q lost compact storage during the batch", label, cn)
					}
				}
				if st := e.Stats(); st.SwarPredScans == 0 {
					t.Errorf("%s: SwarPredScans = 0, want > 0 (narrow code columns present)", label)
				}
			}
		})
	}
}

// TestDifferentialCompactDelta sweeps the PR 9 append modes over a COMPACT
// base table: in-domain deltas keep the columns compact; a dict-shifting or
// cap-crossing delta rematerialises the strings first and then follows the
// raw fallback — in every case results must equal Query.Execute over the
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
			exDelta := NewExecutor(base, WithMorselRows(64))
			parts := []*dataframe.Table{deltaTable(nBase, seed)}

			check := func(round string) {
				got, err := exDelta.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				ref, err := dataframe.Concat(parts...)
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				want := oracleBatch(t, ref, qs, "feature")
				for i, q := range qs {
					sameTable(t, fmt.Sprintf("%s %s", round, q.SQL("r")), got[i], want[i])
				}
			}

			check("cold")
			for bi, size := range sc.sizes {
				bseed := seed + 100 + int64(bi)
				if err := exDelta.Append(deltaRows(size, bseed, sc.mode)); err != nil {
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

// TestDifferentialCompactSharded runs compact parents through provenance
// shards — k ∈ {1, 3}, shared scheduler, concurrent batches under -race —
// against the Query.Augment oracle over raw copies of the same rows.
func TestDifferentialCompactSharded(t *testing.T) {
	d := dupKeyTrainTable(150, 131)
	rng := rand.New(rand.NewSource(132))
	qs := randomPool(rng, 50)
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			r := compacted(t, largeRandomTable(400, 130))
			shards := interleavedShards(r, k)
			sched := NewScanScheduler()
			gotV := make([][][]float64, len(shards))
			gotOK := make([][][]bool, len(shards))
			errs := make([]error, len(shards))
			var wg sync.WaitGroup
			for i, sh := range shards {
				wg.Add(1)
				go func(i int, sh *dataframe.Table) {
					defer wg.Done()
					e := NewExecutor(sh, WithScanScheduler(sched))
					gotV[i], gotOK[i], errs[i] = e.AugmentValuesBatch(d, qs)
				}(i, sh)
			}
			wg.Wait()
			raw := largeRandomTable(400, 130)
			for i, sh := range shards {
				if errs[i] != nil {
					t.Fatalf("shard %d: %v", i, errs[i])
				}
				_, rows, ok := sh.ShardOf()
				if !ok {
					t.Fatal("shard lost provenance")
				}
				ref := raw.Take(rows)
				for qi, q := range qs {
					wantV, wantOK := oracleFeature(t, q, d, ref)
					sameFeature(t, fmt.Sprintf("k=%d shard %d %s", k, i, q.SQL("r")),
						gotV[i][qi], wantV, gotOK[i][qi], wantOK)
				}
			}
		})
	}
}

// TestDifferentialCompactConcat checks query results over spliced compact
// tables: concatenating compact parts sharing one domain keeps the output
// compact (code-splice fast path) and queries over it must match
// Query.Execute over the raw concatenation of the same rows.
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
	want := oracleBatch(t, refTbl, qs, "feature")
	got, err := NewExecutor(gotTbl).ExecuteBatch(qs, "feature")
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		sameTable(t, q.SQL("r"), got[i], want[i])
	}
}

// TestCompactStatsGolden pins the new counters on fixed workloads so the
// accounting cannot drift: every narrow code-kernel bitmap is a SWAR scan
// (SwarPredScans ⊆ CodePredScans), and COUNT queries — batched or single —
// are served with no value pass.
func TestCompactStatsGolden(t *testing.T) {
	qs := []Query{
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "b"}}},
	}
	e := NewExecutor(compacted(t, largeRandomTable(300, 91)))
	if _, err := e.ExecuteBatch(qs, "feature"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CodePredScans != 2 || st.SwarPredScans != 2 {
		t.Errorf("CodePredScans/SwarPredScans = %d/%d, want 2/2 (cat is a uint8-lane column)",
			st.CodePredScans, st.SwarPredScans)
	}
	if st.CountOnlyQueries != 1 {
		t.Errorf("batch CountOnlyQueries = %d, want 1 (one COUNT in the batch)", st.CountOnlyQueries)
	}

	// A single-query COUNT is a batch of one: served from the plan's group
	// counts (CountOnlyQueries), and identical to the Query.Execute oracle.
	cq := Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"},
		Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "c"}}}
	got, err := e.Execute(cq, "feature")
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().CountOnlyQueries; n != 2 {
		t.Errorf("CountOnlyQueries = %d, want 2", n)
	}
	want, err := cq.Execute(largeRandomTable(300, 91), "feature")
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, cq.SQL("r"), got, want)
}
