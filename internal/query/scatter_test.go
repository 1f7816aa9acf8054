package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// dupKeyTrainTable builds a training table where every join key value appears
// on many rows (the one-to-many serving shape), with NULL keys sprinkled in,
// so the scatter's train-group fan-out and NULL-key group are both exercised.
func dupKeyTrainTable(n int, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	k1Valid := make([]bool, n)
	k2 := make([]string, n)
	y := make([]float64, n)
	cats := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(8)) // ~n/8 duplicates per key
		k1Valid[i] = rng.Float64() > 0.1
		k2[i] = cats[rng.Intn(3)]
		y[i] = rng.NormFloat64()
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, k1Valid),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("y", y, nil),
	)
}

// sameFeature requires two feature vectors to be bit-identical.
func sameFeature(t *testing.T, label string, gotV, wantV []float64, gotOK, wantOK []bool) {
	t.Helper()
	if len(gotV) != len(wantV) || len(gotOK) != len(wantOK) {
		t.Fatalf("%s: length mismatch: got %d/%d want %d/%d", label, len(gotV), len(gotOK), len(wantV), len(wantOK))
	}
	for i := range wantV {
		if gotOK[i] != wantOK[i] {
			t.Fatalf("%s: row %d validity: got %v want %v", label, i, gotOK[i], wantOK[i])
		}
		if gotV[i] != wantV[i] {
			t.Fatalf("%s: row %d value: got %v want %v", label, i, gotV[i], wantV[i])
		}
	}
}

// TestDifferentialFusedScatter requires the plan-group-shared scatter to be
// bit-identical to the Query.Augment oracle and to each query run alone (a
// batch of one), across mixed and NULL-heavy relevant tables, duplicate-key
// training rows, and batches containing empty plan groups (masks matching no
// rows) and duplicate queries.
func TestDifferentialFusedScatter(t *testing.T) {
	tables := map[string]*dataframe.Table{
		"mixed":     largeRandomTable(400, 101),
		"nullheavy": nullHeavyTable(400, 102),
	}
	d := dupKeyTrainTable(240, 103)
	for name, r := range tables {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(104))
			qs := randomPool(rng, 150)
			// An empty plan group: no row satisfies x > 1e9.
			qs = append(qs, Query{
				Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"},
				Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 1e9}},
			})
			// Exact duplicates sharing one scatter column.
			qs = append(qs, qs[0], qs[1])

			fused := NewExecutor(r)
			m, err := fused.AugmentMatrix(context.Background(), d, qs)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumRows() != d.NumRows() || m.NumFeatures() != len(qs) {
				t.Fatalf("matrix shape %dx%d, want %dx%d", m.NumRows(), m.NumFeatures(), d.NumRows(), len(qs))
			}
			single := NewExecutor(r)
			for i, q := range qs {
				wantV, wantOK := oracleFeature(t, q, d, r)
				gotV, gotOK := m.Col(i)
				sameFeature(t, q.SQL("r")+" fused-vs-oracle", gotV, wantV, gotOK, wantOK)
				sm, err := single.AugmentMatrix(context.Background(), d, []Query{q})
				if err != nil {
					t.Fatal(err)
				}
				sv, sok := sm.Col(0)
				sameFeature(t, q.SQL("r")+" fused-vs-single", gotV, sv, gotOK, sok)
			}
			fs := fused.Stats()
			if fs.ScatterPasses == 0 || fs.ScatterQueries != int64(len(qs)) {
				t.Fatalf("fused scatter counters: %d passes, %d queries (want >0 passes, %d queries)",
					fs.ScatterPasses, fs.ScatterQueries, len(qs))
			}
			if fs.ScatterPasses >= fs.ScatterQueries {
				t.Fatalf("fused scatter did not share passes: %d passes for %d queries", fs.ScatterPasses, fs.ScatterQueries)
			}
		})
	}
}

// statCtx is a deterministic cancellation probe: it reports Canceled as soon
// as the supplied predicate turns true, letting tests cancel exactly between
// two internal stages of a batch (something a timer-based context cannot do
// reliably).
type statCtx struct {
	context.Context
	done      chan struct{}
	cancelled func() bool
}

func newStatCtx(pred func() bool) *statCtx {
	return &statCtx{Context: context.Background(), done: make(chan struct{}), cancelled: pred}
}

func (c *statCtx) Done() <-chan struct{} { return c.done }

func (c *statCtx) Err() error {
	if c.cancelled() {
		return context.Canceled
	}
	return nil
}

// TestScatterCancellation cancels after the first shared scatter pass and
// requires the batch to abort with the context error before later plan
// groups scatter — the serving-path cancellation the fused scatter must
// observe per plan group.
func TestScatterCancellation(t *testing.T) {
	r := largeRandomTable(300, 111)
	d := dupKeyTrainTable(150, 112)
	ex := NewExecutor(r)
	ex.Parallelism = 1 // deterministic group order
	// Two plan groups: mask-free and x > 0, several queries each.
	var qs []Query
	for _, fn := range []agg.Func{agg.Sum, agg.Avg, agg.Max} {
		qs = append(qs, Query{Agg: fn, AggAttr: "x", Keys: []string{"k1"}})
		qs = append(qs, Query{Agg: fn, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0}}})
	}
	ctx := newStatCtx(func() bool { return ex.Stats().ScatterPasses >= 1 })
	_, err := ex.AugmentMatrix(ctx, d, qs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ex.Stats().ScatterPasses; got != 1 {
		t.Fatalf("scatter ran %d passes after cancellation, want exactly 1", got)
	}
}

// TestFusedScanCancellation cancels mid-plan-group: a batch that collapses
// into ONE plan group with several per-attribute scans must observe the
// context between scans, not only at the (single) worker-item boundary.
func TestFusedScanCancellation(t *testing.T) {
	r := largeRandomTable(300, 121)
	ex := NewExecutor(r)
	ex.Parallelism = 1
	// One plan group (same keys, no preds), three buffered attributes ->
	// discovery + three attribute scans.
	qs := []Query{
		{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"}},
		{Agg: agg.Median, AggAttr: "ts", Keys: []string{"k1"}},
		{Agg: agg.Mode, AggAttr: "cat", Keys: []string{"k1"}},
	}
	// Discovery counts one scan; cancel before the second attribute scan.
	ctx := newStatCtx(func() bool { return ex.Stats().FusedScans >= 2 })
	_, err := ex.AugmentMatrix(ctx, r, qs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ex.Stats().FusedScans; got >= 4 {
		t.Fatalf("ran %d scans after mid-group cancellation, want < 4", got)
	}
}

// TestScatterConcurrentServing hammers one executor with concurrent fused
// batch serving calls (the MultiTransformer shape) under -race and requires
// every call to reproduce the single-threaded reference bit for bit. Half the
// goroutines join the shared training table; the rest each join their own
// request table (a Take of d's rows, as a served pass does), so passes keep
// replacing each other's join entry for the one key-set.
func TestScatterConcurrentServing(t *testing.T) {
	r := largeRandomTable(300, 131)
	d := dupKeyTrainTable(160, 132)
	rng := rand.New(rand.NewSource(133))
	qs := randomPool(rng, 60)
	const shared, own = 8, 4
	tables := []*dataframe.Table{d}
	for g := 0; g < own; g++ {
		rows := make([]int, 5+rng.Intn(30))
		for i := range rows {
			rows[i] = rng.Intn(d.NumRows())
		}
		tables = append(tables, d.Take(rows))
	}
	refs := make([]*FeatureMatrix, len(tables))
	for ti, tbl := range tables {
		m, err := NewExecutor(r).AugmentMatrix(context.Background(), tbl, qs)
		if err != nil {
			t.Fatal(err)
		}
		refs[ti] = m
	}
	ex := NewExecutor(r)
	var wg sync.WaitGroup
	errs := make([]error, shared+own)
	for g := 0; g < shared+own; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ti := 0
			if g >= shared {
				ti = 1 + g - shared
			}
			tbl, want := tables[ti], refs[ti]
			for it := 0; it < 3; it++ {
				m, err := ex.AugmentMatrix(context.Background(), tbl, qs)
				if err != nil {
					errs[g] = err
					return
				}
				if !slices.Equal(m.Vals, want.Vals) || !slices.Equal(m.Valid, want.Valid) {
					errs[g] = fmt.Errorf("table %d: concurrent matrix diverged from reference", ti)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScatterStatsGolden pins the exact counter values of a fixed serving
// workload, so the observability surface cannot silently drift: 2 plan
// groups, 3 distinct scatter columns, one duplicate query, one join entry.
func TestScatterStatsGolden(t *testing.T) {
	r := largeRandomTable(200, 151)
	d := dupKeyTrainTable(100, 152)
	ex := NewExecutor(r)
	qs := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}, // group A, col 1
		{Agg: agg.Avg, AggAttr: "x", Keys: []string{"k1"}}, // group A, col 2
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}, // duplicate of col 1
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"}, // group B, col 3
			Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0}}},
	}
	if _, err := ex.AugmentMatrix(context.Background(), d, qs); err != nil {
		t.Fatal(err)
	}
	s := ex.Stats()
	if s.ScatterPasses != 2 {
		t.Errorf("ScatterPasses = %d, want 2 (one per plan group)", s.ScatterPasses)
	}
	if s.ScatterQueries != 4 {
		t.Errorf("ScatterQueries = %d, want 4", s.ScatterQueries)
	}
	if s.JoinMisses != 1 || s.JoinHits != 0 {
		t.Errorf("join entries %d hits / %d misses, want 0 / 1 (two groups, one key-set joined once per pass)", s.JoinHits, s.JoinMisses)
	}
	if s.FusedQueries != 4 || s.CoreQueries != 0 {
		t.Errorf("fused %d / core %d queries, want 4 / 0", s.FusedQueries, s.CoreQueries)
	}
	// Shared-scan counters: the table's cold core costs one pass for the k1
	// group index and one for the x>=0 predicate bitmap (columns are read in
	// place, so no attribute costs a pass) — its only two misses, both paid by
	// this executor. Both tables fit in one morsel, so MorselsScanned counts
	// scans: discovery for each of the 2 plan groups, one streaming
	// accumulator pass for group A (Sum/Avg share it; group B's Count needs
	// no attribute scan), and one scatter resolve block per group.
	if s.SharedScanPasses != 2 || s.GroupMisses != 1 || s.PredMisses != 1 {
		t.Errorf("shared scans %d passes (group / pred misses %d / %d), want 2 (1 / 1)",
			s.SharedScanPasses, s.GroupMisses, s.PredMisses)
	}
	if s.MorselsScanned != 5 {
		t.Errorf("MorselsScanned = %d, want 5", s.MorselsScanned)
	}
	// A second batch on the warm executor: discovery and joins all cached,
	// two more passes.
	if _, err := ex.AugmentMatrix(context.Background(), d, qs); err != nil {
		t.Fatal(err)
	}
	s = ex.Stats()
	if s.ScatterPasses != 4 || s.ScatterQueries != 8 {
		t.Errorf("after second batch: scatter %d queries / %d passes, want 8 / 4", s.ScatterQueries, s.ScatterPasses)
	}
	if s.JoinMisses != 1 {
		t.Errorf("after second batch: JoinMisses = %d, want still 1", s.JoinMisses)
	}
	// Discovery and the core entries are cached, and group A's Sum/Avg are
	// served from the retained aggregate state (PR 9) without rescanning, so
	// the warm batch adds only the two scatter resolves (2 more morsels).
	if s.SharedScanPasses != 2 || s.GroupMisses != 1 || s.PredMisses != 1 {
		t.Errorf("after second batch: shared scans %d passes (group / pred misses %d / %d), want still 2 (1 / 1)",
			s.SharedScanPasses, s.GroupMisses, s.PredMisses)
	}
	if s.MorselsScanned != 7 {
		t.Errorf("after second batch: MorselsScanned = %d, want 7", s.MorselsScanned)
	}
	// A second executor over the same table finds both core entries built:
	// it pays no pass.
	ex2 := NewExecutor(r)
	if _, err := ex2.AugmentMatrix(context.Background(), d, qs); err != nil {
		t.Fatal(err)
	}
	if s := ex2.Stats(); s.SharedScanPasses != 0 || s.GroupMisses != 0 || s.PredMisses != 0 || s.GroupHits == 0 {
		t.Errorf("second executor: %d passes, group %d/%d, pred misses %d; want 0 passes, hits only",
			s.SharedScanPasses, s.GroupHits, s.GroupMisses, s.PredMisses)
	}
}

// TestAugmentRequestSizedPass: a warm augment of a few training rows touches
// only the plan groups those rows join, and its features are bit-identical
// to the same rows of a full-table augment on the same executor (and to a
// cold executor's). Row subsets cover duplicate keys, a NULL key and a key
// the relevant table lacks.
func TestAugmentRequestSizedPass(t *testing.T) {
	r := largeRandomTable(2000, 161)
	d := dupKeyTrainTable(240, 162)
	qs := randomPool(rand.New(rand.NewSource(163)), 60)
	ex := NewExecutor(r)
	full, err := ex.AugmentMatrix(context.Background(), d, qs)
	if err != nil {
		t.Fatal(err)
	}
	missing := dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", []int64{3, 999, 3}, []bool{true, true, false}),
		dataframe.NewStringColumn("k2", []string{"a", "a", "zz"}, nil),
		dataframe.NewFloatColumn("y", []float64{0, 0, 0}, nil),
	)
	for _, rows := range [][]int{{0}, {5, 5, 17}, {239, 1, 100, 42}} {
		sub := d.Take(rows)
		got, err := ex.AugmentMatrix(context.Background(), sub, qs)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewExecutor(r).AugmentMatrix(context.Background(), sub, qs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range qs {
			gv, gok := got.Col(j)
			fv, fok := full.Col(j)
			cv, cok := cold.Col(j)
			wv := make([]float64, len(rows))
			wok := make([]bool, len(rows))
			for i, row := range rows {
				wv[i], wok[i] = fv[row], fok[row]
			}
			sameFeature(t, qs[j].SQL("r")+" vs full", gv, wv, gok, wok)
			sameFeature(t, qs[j].SQL("r")+" vs cold", gv, cv, gok, cok)
		}
	}
	got, err := ex.AugmentMatrix(context.Background(), missing, qs)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewExecutor(r).AugmentMatrix(context.Background(), missing, qs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range qs {
		gv, gok := got.Col(j)
		cv, cok := cold.Col(j)
		sameFeature(t, qs[j].SQL("r")+" with misses", gv, cv, gok, cok)
		if qs[j].Keys[0] == "k1" && gok[1] {
			t.Errorf("%s: k1 = 999 has no relevant rows but served %v", qs[j].SQL("r"), gv[1])
		}
	}

	// The join maps each request row straight to its relevant group: a
	// non-NULL k1 (0-7, all present in r) to one, the two copies of row 5 to
	// the same one, and the missing key 999 and the NULL key (no relevant
	// row has one) to none.
	sub := d.Take([]int{5, 5, 17})
	pe, err := ex.plan(planKey{keys: "k1"}, []string{"k1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jn, err := ex.joinIndex(sub, "k1", []string{"k1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(jn.rowToR) != 3 || jn.rowToR[1] != jn.rowToR[0] {
		t.Fatalf("rowToR = %v, want 3 rows, the first two on one group", jn.rowToR)
	}
	for i, rg := range jn.rowToR {
		if null := sub.Column("k1").IsNull(i); null != (rg < 0) {
			t.Errorf("row %d (NULL key %v) joined relevant group %d", i, null, rg)
		}
	}
	jm, err := ex.joinIndex(missing, "k1", []string{"k1"})
	if err != nil {
		t.Fatal(err)
	}
	if jm.rowToR[0] < 0 || jm.rowToR[1] != -1 || jm.rowToR[2] != -1 {
		t.Errorf("rowToR over k1 = 3, 999, NULL is %v, want [>=0 -1 -1]", jm.rowToR)
	}

	// The touched set of a 3-row request names at most 3 local groups, and
	// the dedupe marks are left all zero for the next caller.
	sc := &scatterScratch{}
	touched, rowLocal, morsels, err := sc.touchedGroups(context.Background(), pe, jn, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) == 0 || len(touched) > 2 || len(rowLocal) != 3 || rowLocal[0] != rowLocal[1] || morsels != 2 {
		t.Errorf("touched = %v, rowLocal = %v over %d morsels; want 1-2 groups, rows 0 and 1 alike, 2 morsels",
			touched, rowLocal, morsels)
	}
	for li, m := range sc.mark {
		if m != 0 {
			t.Fatalf("mark[%d] = %d after touchedGroups, want 0", li, m)
		}
	}
}
