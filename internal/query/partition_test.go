package query

// Partitions of one table, as a split scenario builds them: each partition is
// a plain table (Take of a row list), and an executor over it must agree with
// the Query.Execute oracle over the same rows. The shapes are contiguous
// ranges, round-robin interleaves that cross every morsel boundary, and empty
// and single-row partitions. The tests at the end cover executors sharing one
// table's scan core, the sharing served plans and fit-then-transform runs
// rely on.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// rangeParts splits rows 0..n-1 into k contiguous ranges (sizes differ by at
// most one row).
func rangeParts(n, k int) [][]int {
	parts := make([][]int, k)
	lo := 0
	for i := range parts {
		size := n / k
		if i < n%k {
			size++
		}
		for j := 0; j < size; j++ {
			parts[i] = append(parts[i], lo+j)
		}
		lo += size
	}
	return parts
}

// interleavedParts deals rows 0..n-1 round-robin across k partitions, so
// every partition's rows come from every morsel of the source table.
func interleavedParts(n, k int) [][]int {
	parts := make([][]int, k)
	for row := 0; row < n; row++ {
		parts[row%k] = append(parts[row%k], row)
	}
	return parts
}

// checkPartOracle runs qs through ex, an executor over part, and requires
// every feature column over d to equal the Query.Augment oracle's.
func checkPartOracle(t *testing.T, label string, ex *Executor, part, d *dataframe.Table, qs []Query) {
	t.Helper()
	gotV, gotOK, err := ex.AugmentValuesBatch(d, qs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for qi, q := range qs {
		wantV, wantOK := oracleFeature(t, q, d, part)
		sameFeature(t, label+" "+q.SQL("r"), gotV[qi], wantV, gotOK[qi], wantOK)
	}
}

// TestDifferentialShardExecutor runs executors over range and interleaved
// partitions of mixed and NULL-heavy tables, k ∈ {1, 3, GOMAXPROCS}, with
// random batches spanning all 15 agg funcs, against the oracle; odd morsel
// sizes make every scan cross many segment boundaries.
func TestDifferentialShardExecutor(t *testing.T) {
	tables := map[string]*dataframe.Table{
		"mixed":     largeRandomTable(400, 161),
		"nullheavy": nullHeavyTable(400, 162),
	}
	d := dupKeyTrainTable(200, 163)
	for name, r := range tables {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(164))
			qs := randomPool(rng, 80)
			n := r.NumRows()
			for _, k := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				for kind, parts := range map[string][][]int{
					"range":      rangeParts(n, k),
					"interleave": interleavedParts(n, k),
				} {
					for i, rows := range parts {
						part := r.Take(rows)
						checkPartOracle(t, fmt.Sprintf("k=%d %s part %d", k, kind, i), NewExecutor(part), part, d, qs)
					}
				}
			}
			for _, msize := range []int{1, 7} {
				for i, rows := range interleavedParts(n, 3) {
					part := r.Take(rows)
					checkPartOracle(t, fmt.Sprintf("morsel size %d part %d", msize, i),
						NewExecutor(part, withMorselRows(msize)), part, d, qs)
				}
			}
		})
	}
}

// TestShardEmptyAndSingleRow covers degenerate partitions end to end: an
// empty partition answers every query with its empty-relation semantics, and
// a one-row partition matches the oracle.
func TestShardEmptyAndSingleRow(t *testing.T) {
	r := largeRandomTable(100, 195)
	d := dupKeyTrainTable(60, 196)
	qs := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}},
		{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "flag", Kind: PredEq, BoolValue: true}}},
		{Agg: agg.Mode, AggAttr: "cat", Keys: []string{"k2"}},
	}
	for label, rows := range map[string][]int{"empty": nil, "single": {42}} {
		part := r.Take(rows)
		checkPartOracle(t, label, NewExecutor(part), part, d, qs)
	}
}

// TestSharedScanCounters requires two executors over one table to pay the
// table passes once between them — the second one pays none and hits the
// entries the first built — where executors over a table and its Clone each
// pay every pass.
func TestSharedScanCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	qs := randomPool(rng, 60)

	run := func(a, b *dataframe.Table) [2]ExecutorStats {
		var st [2]ExecutorStats
		for i, tbl := range []*dataframe.Table{a, b} {
			e := NewExecutor(tbl)
			if _, err := e.ExecuteBatch(qs, "f"); err != nil {
				t.Fatal(err)
			}
			st[i] = e.Stats()
		}
		return st
	}

	r := largeRandomTable(400, 171)
	shared := run(r, r)
	iso := largeRandomTable(400, 171)
	isolated := run(iso, iso.Clone())

	full := shared[0].SharedScanPasses
	if full == 0 || shared[1].SharedScanPasses != 0 {
		t.Errorf("executors over one table paid %d and %d passes, want all of them by the first",
			full, shared[1].SharedScanPasses)
	}
	if s := shared[1]; s.GroupHits == 0 || s.GroupMisses != 0 || s.PredMisses != 0 {
		t.Errorf("second executor over one table: groups %d/%d, pred misses %d; want hits only",
			s.GroupHits, s.GroupMisses, s.PredMisses)
	}
	for i, s := range isolated {
		if s.SharedScanPasses != full {
			t.Errorf("executor %d over a table or its clone paid %d passes, want %d", i, s.SharedScanPasses, full)
		}
	}
}

// TestConcurrentScanSharing runs two executors over one table concurrently
// (under -race) — plan groups from both hitting the same core entries while
// they are being built — and requires every result to match the oracle bit
// for bit, and both executors to hold the table's one core. The tiny morsel
// size maximises segment-boundary traffic.
func TestConcurrentScanSharing(t *testing.T) {
	r := largeRandomTable(300, 181)
	d := dupKeyTrainTable(150, 182)
	rng := rand.New(rand.NewSource(183))
	qs := randomPool(rng, 40)
	refV := make([][]float64, len(qs))
	refOK := make([][]bool, len(qs))
	for qi, q := range qs {
		refV[qi], refOK[qi] = oracleFeature(t, q, d, r)
	}

	const k = 2
	var wg sync.WaitGroup
	errs := make([]error, k)
	cores := make([]*tableCore, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewExecutor(r, withMorselRows(7))
			cores[i] = e.core
			for it := 0; it < 3; it++ {
				v, ok, err := e.AugmentValuesBatch(d, qs)
				if err != nil {
					errs[i] = err
					return
				}
				for qi := range qs {
					for row := range v[qi] {
						if v[qi][row] != refV[qi][row] || ok[qi][row] != refOK[qi][row] {
							errs[i] = errors.New("concurrent shared-core batch diverged from the oracle")
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cores[0] != cores[1] || cores[0] != coreOf(r) {
		t.Error("executors over one table hold different cores")
	}
}
