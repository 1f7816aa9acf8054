package feataug

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/ml"
	"repro/internal/pipeline"
)

func shardedFixtureTable(n int) *dataframe.Table {
	k1 := make([]int64, n)
	x := make([]float64, n)
	grp := make([]string, n)
	grpValid := make([]bool, n)
	groups := []string{"b", "a", "c"}
	for i := 0; i < n; i++ {
		k1[i] = int64(i % 10)
		x[i] = float64(i)*1.25 - 30
		grp[i] = groups[i%3]
		grpValid[i] = i%17 != 0 // sprinkle NULL split values
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewFloatColumn("x", x, nil),
		dataframe.NewStringColumn("grp", grp, grpValid),
	)
}

// TestShardedTableByValues splits a table on a string column: SplitValues
// lists the distinct non-NULL values in order, and SplitByValue builds one
// plain table per listed value holding exactly its rows in row order, an empty
// one for an absent value, and counts NULL and unlisted rows as unmatched.
func TestShardedTableByValues(t *testing.T) {
	tbl := shardedFixtureTable(100)
	names, err := SplitValues(tbl, "grp")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("split values = %v, want sorted [a b c]", names)
	}
	wantNulls := 0
	for i := 0; i < 100; i += 17 {
		wantNulls++
	}
	parts, nulls, err := SplitByValue(tbl, "grp", names)
	if err != nil {
		t.Fatal(err)
	}
	if nulls != wantNulls {
		t.Fatalf("unmatched = %d, want the %d NULL rows", nulls, wantNulls)
	}
	grp, x := tbl.Column("grp"), tbl.Column("x").FloatData()
	rowsTotal := 0
	if len(parts) != len(names) {
		t.Fatalf("%d parts for %d values", len(parts), len(names))
	}
	for name, part := range parts {
		px := part.Column("x").FloatData()
		j := 0
		for r := 0; r < tbl.NumRows(); r++ {
			if grp.IsNull(r) || grp.Str(r) != name {
				continue
			}
			if j >= part.NumRows() || px[j] != x[r] {
				t.Fatalf("part %q row %d does not hold source row %d", name, j, r)
			}
			j++
		}
		if j != part.NumRows() {
			t.Fatalf("part %q has %d rows, want %d", name, part.NumRows(), j)
		}
		rowsTotal += part.NumRows()
	}
	if rowsTotal+nulls != tbl.NumRows() {
		t.Fatalf("parts cover %d rows + %d NULLs, want %d total", rowsTotal, nulls, tbl.NumRows())
	}

	// Bind-time split: values come from a plan, so one may be absent from
	// the table (empty part) and a present one unlisted (unmatched rows).
	parts, unmatched, err := SplitByValue(tbl, "grp", []string{"c", "zz"})
	if err != nil {
		t.Fatal(err)
	}
	if parts["zz"].NumRows() != 0 || unmatched != tbl.NumRows()-parts["c"].NumRows() {
		t.Fatalf("absent value: %d rows, unmatched %d", parts["zz"].NumRows(), unmatched)
	}

	// Error paths.
	if _, err := SplitValues(nil, "grp"); err == nil {
		t.Error("nil table should fail")
	}
	if _, _, err := SplitByValue(tbl, "ghost", names); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := SplitValues(tbl, "x"); err == nil {
		t.Error("non-string column should fail")
	}
	if _, _, err := SplitByValue(tbl, "grp", []string{"a", "a"}); err == nil {
		t.Error("a value listed twice should fail")
	}
	allNull := dataframe.MustNewTable(
		dataframe.NewStringColumn("g", []string{"x", "y"}, []bool{false, false}))
	if got, err := SplitValues(allNull, "g"); err != nil || len(got) != 0 {
		t.Errorf("all-NULL split column: values %v, err %v; want none", got, err)
	}
}

// TestFitMultiShardedMergedStats runs FitMulti over two halves of one
// relevant table and requires -v-style logging to carry exactly ONE merged
// executor-stats line for the set, instead of one interleaved line per
// source.
func TestFitMultiShardedMergedStats(t *testing.T) {
	users := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, nil),
		dataframe.NewIntColumn("age", []int64{20, 30, 40, 50, 25, 35, 45, 55, 22, 33, 44, 56, 21, 31, 41, 51, 26, 36, 46, 57}, nil),
		dataframe.NewIntColumn("label", []int64{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, nil),
	)
	var (
		uid []int64
		amt []float64
	)
	for u := int64(1); u <= 20; u++ {
		for j := int64(0); j < 3; j++ {
			uid = append(uid, u)
			base := float64(10)
			if u%2 == 1 {
				base = 50
			}
			amt = append(amt, base+float64(j))
		}
	}
	orders := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", uid, nil),
		dataframe.NewFloatColumn("amount", amt, nil),
	)
	var first, second []int
	for i := 0; i < orders.NumRows(); i++ {
		if i < orders.NumRows()/2 {
			first = append(first, i)
		} else {
			second = append(second, i)
		}
	}
	base := pipeline.Problem{
		Train: users, Label: "label", Task: ml.Binary,
		BaseFeatures: []string{"age"},
		Relevant:     orders, Keys: []string{"user_id"},
	}
	cfg := Config{Seed: 2, WarmupIters: 6, WarmupTopK: 2, GenIters: 2,
		NumTemplates: 1, QueriesPerTemplate: 1, MaxDepth: 1, TemplateProxyIters: 3}
	var mu sync.Mutex
	var lines []string
	_, err := FitMulti(context.Background(), base,
		[]RelevantInput{
			{Name: "first", Table: orders.Take(first), Keys: []string{"user_id"}, AggAttrs: []string{"amount"}},
			{Name: "second", Table: orders.Take(second), Keys: []string{"user_id"}, AggAttrs: []string{"amount"}},
		},
		WithConfig(cfg), WithModel(ml.KindLR),
		WithLogf(func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		}))
	if err != nil {
		t.Fatal(err)
	}
	merged, perSource := 0, 0
	for _, l := range lines {
		if strings.Contains(l, "merged executor stats") {
			merged++
		} else if strings.Contains(l, "executor stats") {
			perSource++
		}
	}
	if merged != 1 {
		t.Errorf("merged stats lines = %d, want exactly 1", merged)
	}
	if perSource != 0 {
		t.Errorf("per-source stats lines = %d, want 0", perSource)
	}
}
