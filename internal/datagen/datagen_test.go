package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/stats"
)

func allDatasets(t *testing.T) []*Dataset {
	t.Helper()
	var out []*Dataset
	for _, name := range append(OneToManyNames(), SingleTableNames()...) {
		gen, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, gen(Options{TrainRows: 300, Seed: 1}))
	}
	return out
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestDatasetShapesAndSchema(t *testing.T) {
	for _, d := range allDatasets(t) {
		if d.Train.NumRows() == 0 || d.Relevant.NumRows() == 0 {
			t.Fatalf("%s: empty tables", d.Name)
		}
		if !d.Train.HasColumn(d.Label) {
			t.Fatalf("%s: missing label column", d.Name)
		}
		for _, k := range d.Keys {
			if !d.Train.HasColumn(k) || !d.Relevant.HasColumn(k) {
				t.Fatalf("%s: key %q missing", d.Name, k)
			}
		}
		for _, a := range append(append([]string{}, d.AggAttrs...), d.PredAttrs...) {
			if !d.Relevant.HasColumn(a) {
				t.Fatalf("%s: attr %q missing in relevant table", d.Name, a)
			}
		}
		for _, f := range d.BaseFeatures {
			if !d.Train.HasColumn(f) {
				t.Fatalf("%s: base feature %q missing", d.Name, f)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Tmall(Options{TrainRows: 100, Seed: 5})
	b := Tmall(Options{TrainRows: 100, Seed: 5})
	if a.Relevant.NumRows() != b.Relevant.NumRows() {
		t.Fatal("same seed should give same log count")
	}
	la, lb := a.Train.Column("label"), b.Train.Column("label")
	for i := 0; i < a.Train.NumRows(); i++ {
		if la.Int(i) != lb.Int(i) {
			t.Fatal("labels differ for identical seeds")
		}
	}
	c := Tmall(Options{TrainRows: 100, Seed: 6})
	diff := false
	lc := c.Train.Column("label")
	for i := 0; i < 100; i++ {
		if la.Int(i) != lc.Int(i) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds should give different data")
	}
}

func TestLabelsAreBalancedEnough(t *testing.T) {
	for _, name := range OneToManyNames() {
		gen, _ := ByName(name)
		d := gen(Options{TrainRows: 500, Seed: 2})
		if d.Task != ml.Binary {
			continue
		}
		pos := 0
		l := d.Train.Column(d.Label)
		for i := 0; i < d.Train.NumRows(); i++ {
			if l.Int(i) == 1 {
				pos++
			}
		}
		frac := float64(pos) / float64(d.Train.NumRows())
		if frac < 0.15 || frac > 0.85 {
			t.Errorf("%s: positive fraction %.2f is too skewed", name, frac)
		}
	}
}

// TestPlantedSignalIsPredicateDependent verifies the core design property:
// the predicate-restricted aggregate carries more mutual information about
// the label than the same aggregate without predicates.
func TestPlantedSignalIsPredicateDependent(t *testing.T) {
	d := Tmall(Options{TrainRows: 800, Seed: 3})
	labels := make([]int, d.Train.NumRows())
	lcol := d.Train.Column("label")
	for i := range labels {
		labels[i] = int(lcol.Int(i))
	}
	codes := stats.CodeLabels(labels)

	miOf := func(q query.Query) float64 {
		t.Helper()
		aug, err := q.Augment(d.Train, d.Relevant, "f")
		if err != nil {
			t.Fatal(err)
		}
		vals, valid := aug.Column("f").Floats()
		return stats.MIScore(vals, valid, codes, 10)
	}

	plain := query.Query{Agg: agg.Count, AggAttr: "price", Keys: d.Keys}
	predicated := query.Query{
		Agg: agg.Count, AggAttr: "price", Keys: d.Keys,
		Preds: []query.Predicate{
			{Attr: "action", Kind: query.PredEq, StrValue: "buy"},
			{Attr: "timestamp", Kind: query.PredRange, HasLo: true, Lo: 5000},
		},
	}
	miPlain := miOf(plain)
	miPred := miOf(predicated)
	if miPred <= miPlain {
		t.Fatalf("predicate-aware MI %.4f should beat plain MI %.4f", miPred, miPlain)
	}
}

func TestMerchantSignal(t *testing.T) {
	d := Merchant(Options{TrainRows: 600, Seed: 4})
	if d.Task != ml.Regression {
		t.Fatal("merchant should be regression")
	}
	y := make([]float64, d.Train.NumRows())
	lcol := d.Train.Column("label")
	for i := range y {
		y[i] = lcol.Float(i)
	}
	corrOf := func(q query.Query) float64 {
		aug, err := q.Augment(d.Train, d.Relevant, "f")
		if err != nil {
			t.Fatal(err)
		}
		vals, valid := aug.Column("f").Floats()
		return stats.Spearman(vals, y, valid)
	}
	plain := query.Query{Agg: agg.Sum, AggAttr: "purchase_amount", Keys: d.Keys}
	pred := query.Query{
		Agg: agg.Sum, AggAttr: "purchase_amount", Keys: d.Keys,
		Preds: []query.Predicate{
			{Attr: "month_lag", Kind: query.PredRange, HasLo: true, Lo: -2},
			{Attr: "approved", Kind: query.PredEq, BoolValue: true},
		},
	}
	if corrOf(pred) <= corrOf(plain) {
		t.Fatalf("predicated corr %.3f should beat plain corr %.3f", corrOf(pred), corrOf(plain))
	}
}

func TestSingleTableDatasets(t *testing.T) {
	cov := Covtype(Options{TrainRows: 400, Seed: 5})
	if cov.Task != ml.MultiClass {
		t.Fatal("covtype should be multiclass")
	}
	if cov.Train.NumRows() != cov.Relevant.NumRows() {
		t.Fatal("covtype should be one-to-one")
	}
	classes := map[int64]bool{}
	l := cov.Train.Column("label")
	for i := 0; i < cov.Train.NumRows(); i++ {
		classes[l.Int(i)] = true
	}
	if len(classes) < 3 {
		t.Fatalf("covtype has only %d classes", len(classes))
	}

	hh := Household(Options{TrainRows: 400, Seed: 5})
	if len(hh.BaseFeatures) != 5 {
		t.Fatal("household should keep 5 base features (paper setup)")
	}
	if hh.Train.NumRows() != hh.Relevant.NumRows() {
		t.Fatal("household should be one-to-one")
	}
}

func TestWidenRelevant(t *testing.T) {
	d := Student(Options{TrainRows: 100, Seed: 6})
	orig := d.Relevant.NumCols()
	wide := WidenRelevant(d, orig+10)
	if wide.Relevant.NumCols() < orig+10 {
		t.Fatalf("widened to %d cols, want >= %d", wide.Relevant.NumCols(), orig+10)
	}
	if d.Relevant.NumCols() != orig {
		t.Fatal("WidenRelevant must not mutate the original")
	}
	if len(wide.AggAttrs) <= len(d.AggAttrs) {
		t.Fatal("widened AggAttrs should grow")
	}
	if wide.Name != "student-wide" {
		t.Fatalf("name = %s", wide.Name)
	}
	// Duplicated columns are usable in queries.
	q := query.Query{Agg: agg.Avg, AggAttr: wide.AggAttrs[len(wide.AggAttrs)-1], Keys: wide.Keys}
	if _, err := q.Execute(wide.Relevant, "f"); err != nil {
		t.Fatal(err)
	}
}

func TestSubsampling(t *testing.T) {
	d := Student(Options{TrainRows: 200, Seed: 7})
	st := SubsampleTrain(d, 50)
	if st.Train.NumRows() != 50 || st.Relevant.NumRows() != d.Relevant.NumRows() {
		t.Fatal("SubsampleTrain wrong")
	}
	sr := SubsampleRelevant(d, 100)
	if sr.Relevant.NumRows() != 100 || sr.Train.NumRows() != d.Train.NumRows() {
		t.Fatal("SubsampleRelevant wrong")
	}
}

func TestPoissonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive mean should give 0")
	}
	sum := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		sum += poisson(rng, 3)
	}
	mean := float64(sum) / trials
	if mean < 2.7 || mean > 3.3 {
		t.Fatalf("poisson(3) empirical mean = %v", mean)
	}
}

func TestTemplateBuildsOnAllDatasets(t *testing.T) {
	for _, d := range allDatasets(t) {
		tpl := query.Template{
			Funcs:     agg.All(),
			AggAttrs:  d.AggAttrs,
			PredAttrs: d.PredAttrs[:2],
			Keys:      d.Keys,
		}
		s, err := query.BuildSpace(d.Relevant, tpl, query.SpaceOptions{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 5; i++ {
			q, err := s.Decode(s.RandomVector(rng.Intn))
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			if _, err := q.Augment(d.Train, d.Relevant, "f"); err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
		}
	}
}
