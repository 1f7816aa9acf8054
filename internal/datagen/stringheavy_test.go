package datagen

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/query"
)

func TestStringHeavyCompactByConstruction(t *testing.T) {
	d := StringHeavy(Options{TrainRows: 200, Seed: 3})
	if d.Name != "stringheavy" {
		t.Fatalf("name = %q", d.Name)
	}
	if gen, err := ByName("stringheavy"); err != nil || gen == nil {
		t.Fatalf("ByName(stringheavy): %v", err)
	}
	// Every string column must be code-backed from construction: compact
	// codes ARE the storage, there is no []string to fall back on.
	for _, name := range []string{"event", "channel", "country", "device", "sku_family"} {
		c := d.Relevant.Column(name)
		if c == nil || c.Kind() != dataframe.KindString {
			t.Fatalf("column %q missing or not string", name)
		}
		if !c.IsCompact() {
			t.Errorf("column %q is not compact", name)
		}
		if c.StrData() != nil {
			t.Errorf("column %q still carries a []string backing", name)
		}
	}
	// sku_family crosses 256 distinct values, so compact reads decode codes
	// past the one-byte range.
	if n := len(d.Relevant.Column("sku_family").DistinctStrings(0)); n <= 256 {
		t.Errorf("sku_family cardinality = %d, want > 256", n)
	}
}

func TestStringHeavyScalesAndIsDeterministic(t *testing.T) {
	a := StringHeavy(Options{TrainRows: 150, LogsPerKey: 6, Seed: 9})
	b := StringHeavy(Options{TrainRows: 150, LogsPerKey: 6, Seed: 9})
	if a.Relevant.NumRows() != b.Relevant.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.Relevant.NumRows(), b.Relevant.NumRows())
	}
	ca, cb := a.Relevant.Column("sku_family"), b.Relevant.Column("sku_family")
	for i := 0; i < ca.Len(); i++ {
		if ca.Str(i) != cb.Str(i) {
			t.Fatalf("row %d differs: %q vs %q", i, ca.Str(i), cb.Str(i))
		}
	}
	// Rows track TrainRows*LogsPerKey closely (fixed noise count + a small
	// propensity-driven tail), so benchmark callers can size 10⁷ rows.
	base := 150 * 6
	if n := a.Relevant.NumRows(); n < base-150 || n > base+3*150 {
		t.Fatalf("rows = %d, want near %d", a.Relevant.NumRows(), base)
	}
}

func TestStringHeavyPlantedSignal(t *testing.T) {
	d := StringHeavy(Options{TrainRows: 400, Seed: 11})
	e := query.NewExecutor(d.Relevant)
	q := query.Query{Agg: agg.Count, AggAttr: "spend", Keys: []string{"user_id"},
		Preds: []query.Predicate{
			{Attr: "event", Kind: query.PredEq, StrValue: "order"},
			{Attr: "channel", Kind: query.PredEq, StrValue: "app"},
		}}
	vals, ok, err := e.AugmentValues(d.Train, q)
	if err != nil {
		t.Fatal(err)
	}
	labels := d.Train.Column("label")
	var sum1, n1, sum0, n0 float64
	for i := range vals {
		v := 0.0
		if ok[i] {
			v = vals[i]
		}
		if labels.Int(i) == 1 {
			sum1, n1 = sum1+v, n1+1
		} else {
			sum0, n0 = sum0+v, n0+1
		}
	}
	if n1 == 0 || n0 == 0 {
		t.Fatal("labels are degenerate")
	}
	if sum1/n1 <= sum0/n0 {
		t.Errorf("filtered app-order count does not separate labels: pos %.3f vs neg %.3f",
			sum1/n1, sum0/n0)
	}
}
