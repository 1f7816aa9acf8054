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

// dictVariantTable is largeRandomTable with the cat column replaced by the
// dictionary edge case under test: all-NULL (empty dictionary), a single
// value, or a per-row-distinct domain above MaxDictCardinality (encode
// declines, every consumer falls back).
func dictVariantTable(n int, seed int64, variant string) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	k2 := make([]string, n)
	x := make([]float64, n)
	xValid := make([]bool, n)
	cat := make([]string, n)
	catValid := make([]bool, n)
	flag := make([]bool, n)
	ts := make([]int64, n)
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(20))
		k2[i] = cats[rng.Intn(3)]
		x[i] = rng.NormFloat64() * 100
		xValid[i] = rng.Float64() > 0.1
		flag[i] = rng.Float64() > 0.5
		ts[i] = int64(rng.Intn(100000))
		switch variant {
		case "allnull":
			cat[i], catValid[i] = "ignored", false
		case "singleval":
			cat[i], catValid[i] = "a", true
		case "highcard":
			cat[i], catValid[i] = fmt.Sprintf("u%05d", i), true
		}
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("x", x, xValid),
		dataframe.NewStringColumn("cat", cat, catValid),
		dataframe.NewBoolColumn("flag", flag, nil),
		dataframe.NewTimeColumn("ts", ts, nil),
	)
}

// TestDifferentialDictEncoding is the dictionary-encoding contract: random
// batches over mixed, NULL-heavy, all-NULL-string, single-value and
// above-the-cap tables must match Query.Execute bit for bit — including
// string group keys and order-statistics aggregates over strings. The
// above-the-cap table takes the unencoded fallbacks (composite-key grouping,
// per-row string compares), so both shapes are checked.
func TestDifferentialDictEncoding(t *testing.T) {
	tables := map[string]*dataframe.Table{
		"mixed":     largeRandomTable(500, 71),
		"nullheavy": nullHeavyTable(500, 72),
		"allnull":   dictVariantTable(400, 73, "allnull"),
		"singleval": dictVariantTable(400, 74, "singleval"),
		"highcard":  dictVariantTable(1500, 75, "highcard"),
	}
	for name, r := range tables {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(76))
			qs := randomPool(rng, 150)
			// Force string-keyed grouping into every run (randomPool already
			// mixes cat predicates in).
			qs = append(qs,
				Query{Agg: agg.Median, AggAttr: "cat", Keys: []string{"k2"}},
				Query{Agg: agg.Mode, AggAttr: "cat", Keys: []string{"k2", "cat"}},
				Query{Agg: agg.CountDistinct, AggAttr: "x", Keys: []string{"cat"}},
			)
			// Executors over a clone start from a cold core of their own.
			enc := NewExecutor(r.Clone())
			checkGroups(t, "cold", enc, qs, r)
			// A warm batch reuses cached plans and must still match.
			checkGroups(t, "warm", enc, qs, r)
			if name == "mixed" {
				if st := enc.Stats(); st.DictEncodes == 0 || st.CodePredScans == 0 {
					t.Errorf("encoded executor never used the code kernels: %+v", st)
				}
			}
			if name == "highcard" {
				// Above the cap the dictionary declines: lookups happen, code
				// predicates cannot (the cat operand has no code).
				if st := enc.Stats(); st.DictEncodes == 0 {
					t.Errorf("highcard: no encode attempt recorded: %+v", st)
				}
				// cat predicates alone (one operand present, one absent) build
				// their bitmaps through the per-row string compare.
				catQs := []Query{
					{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"},
						Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "u00007"}}},
					{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
						Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
				}
				ex := NewExecutor(r.Clone())
				checkGroups(t, "highcard", ex, catQs, r)
				if st := ex.Stats(); st.CodePredScans != 0 || st.PredMisses != 2 {
					t.Errorf("highcard cat predicates: CodePredScans/PredMisses = %d/%d, want 0/2",
						st.CodePredScans, st.PredMisses)
				}
			}
		})
	}
}

// TestDifferentialDictSharded runs the encoded path over range and
// interleaved partitions of one table, k ∈ {1, 3}, their executors scanning
// concurrently, against the Query.Augment oracle over the same rows.
func TestDifferentialDictSharded(t *testing.T) {
	tables := map[string]*dataframe.Table{
		"mixed":     largeRandomTable(400, 81),
		"nullheavy": nullHeavyTable(400, 82),
	}
	d := dupKeyTrainTable(150, 83)
	for name, r := range tables {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(84))
			qs := randomPool(rng, 60)
			for _, k := range []int{1, 3} {
				for kind, parts := range map[string][][]int{
					"range":      rangeParts(r.NumRows(), k),
					"interleave": interleavedParts(r.NumRows(), k),
				} {
					tables := make([]*dataframe.Table, len(parts))
					ms := make([]*FeatureMatrix, len(parts))
					errs := make([]error, len(parts))
					var wg sync.WaitGroup
					for i, rows := range parts {
						tables[i] = r.Take(rows)
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							ms[i], errs[i] = NewExecutor(tables[i]).AugmentMatrix(context.Background(), d, qs)
						}(i)
					}
					wg.Wait()
					for i, part := range tables {
						if errs[i] != nil {
							t.Fatalf("k=%d %s part %d: %v", k, kind, i, errs[i])
						}
						for qi, q := range qs {
							gotV, gotOK := ms[i].Col(qi)
							wantV, wantOK := oracleFeature(t, q, d, part)
							sameFeature(t, fmt.Sprintf("k=%d %s part %d %s", k, kind, i, q.SQL("r")),
								gotV, wantV, gotOK, wantOK)
						}
					}
				}
			}
		})
	}
}

// TestDictStatsGolden pins the dictionary counters on a fixed workload so the
// accounting cannot drift silently: first lookup of each string column is the
// encode, every later one a hit, and each distinct predicate entry builds its
// bitmap through the code kernels exactly once.
func TestDictStatsGolden(t *testing.T) {
	r := largeRandomTable(300, 91)
	e := NewExecutor(r.Clone())
	qs := []Query{
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "b"}}},
		{Agg: agg.Avg, AggAttr: "x", Keys: []string{"cat"}},
	}
	if _, err := e.AugmentMatrix(context.Background(), e.Table(), qs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.DictEncodes != 2 {
		t.Errorf("DictEncodes = %d, want 2 (cat and k2, one encode each)", st.DictEncodes)
	}
	if st.CodePredScans != 2 {
		t.Errorf("CodePredScans = %d, want 2 (cat='a' and cat='b' bitmaps)", st.CodePredScans)
	}
	if st.DictHits == 0 {
		t.Errorf("DictHits = 0, want repeated lookups to hit the shared entry")
	}
	// The same batch warm: every dictionary lookup hits, no new code preds.
	if _, err := e.AugmentMatrix(context.Background(), e.Table(), qs); err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.DictEncodes != st.DictEncodes || st2.CodePredScans != st.CodePredScans {
		t.Errorf("warm batch re-encoded or rebuilt: %+v -> %+v", st, st2)
	}
	if st2.DictHits <= st.DictHits {
		t.Errorf("warm batch recorded no dictionary hits: %d -> %d", st.DictHits, st2.DictHits)
	}
}

// TestPredKeyCanonical is the operand-quoting satellite: predicate cache
// identity for string equality is the dictionary code, so spellings that
// differ only in fields the column cannot read share one entry, while
// out-of-dictionary operands stay distinct.
func TestPredKeyCanonical(t *testing.T) {
	r := largeRandomTable(300, 92)
	e := NewExecutor(r.Clone())

	pa := Predicate{Attr: "cat", Kind: PredEq, StrValue: "a"}
	paNoise := Predicate{Attr: "cat", Kind: PredEq, StrValue: "a", BoolValue: true}
	if e.predKey(pa) != e.predKey(paNoise) {
		t.Errorf("bool-noise spellings of cat='a' got distinct keys %q vs %q",
			e.predKey(pa), e.predKey(paNoise))
	}
	if predCacheKey(pa) == predCacheKey(paNoise) {
		t.Error("legacy predCacheKey collapsed the spellings; satellite test is vacuous")
	}
	if e.predKey(pa) == e.predKey(Predicate{Attr: "cat", Kind: PredEq, StrValue: "b"}) {
		t.Error("distinct operands share a key")
	}
	// Operands outside the dictionary select nothing but remain distinct.
	miss1 := Predicate{Attr: "cat", Kind: PredEq, StrValue: "zz1"}
	miss2 := Predicate{Attr: "cat", Kind: PredEq, StrValue: "zz2"}
	if e.predKey(miss1) == e.predKey(miss2) {
		t.Error("distinct out-of-dictionary operands share a key")
	}
	// Bool columns drop the string operand instead.
	fb := Predicate{Attr: "flag", Kind: PredEq, BoolValue: true}
	fbNoise := Predicate{Attr: "flag", Kind: PredEq, BoolValue: true, StrValue: "junk"}
	if e.predKey(fb) != e.predKey(fbNoise) {
		t.Error("string-noise spellings of flag=true got distinct keys")
	}

	// End to end: two queries whose predicates differ only in bool noise build
	// ONE code-kernel bitmap between them.
	qs := []Query{
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"}, Preds: []Predicate{pa}},
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}, Preds: []Predicate{paNoise}},
	}
	// The shared entry serves the correct rows.
	checkGroups(t, "shared bitmap", e, qs, r)
	if st := e.Stats(); st.CodePredScans != 1 {
		t.Errorf("CodePredScans = %d, want 1 shared bitmap build", st.CodePredScans)
	}
}
