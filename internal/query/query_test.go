package query

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// userLogs reproduces the paper's running example (Figure 1): a User_Logs
// relevant table with cname / pname / pprice / department / timestamp.
func userLogs() *dataframe.Table {
	return dataframe.MustNewTable(
		dataframe.NewStringColumn("cname", []string{"alice", "alice", "bob", "bob", "alice", "carol"}, nil),
		dataframe.NewStringColumn("pname", []string{"kindle", "tv", "apple", "tv", "case", "tv"}, nil),
		dataframe.NewFloatColumn("pprice", []float64{100, 500, 2, 450, 20, 480}, nil),
		dataframe.NewStringColumn("department", []string{"Electronics", "Electronics", "Food", "Electronics", "Electronics", "Electronics"}, nil),
		dataframe.NewTimeColumn("timestamp", []int64{100, 200, 150, 250, 300, 200}, nil),
	)
}

func userInfo() *dataframe.Table {
	return dataframe.MustNewTable(
		dataframe.NewStringColumn("cname", []string{"alice", "bob", "carol", "dave"}, nil),
		dataframe.NewIntColumn("age", []int64{30, 40, 50, 60}, nil),
		dataframe.NewIntColumn("label", []int64{1, 0, 1, 0}, nil),
	)
}

func exampleTemplate() Template {
	return Template{
		Funcs:     []agg.Func{agg.Sum, agg.Avg, agg.Max},
		AggAttrs:  []string{"pprice"},
		PredAttrs: []string{"department", "timestamp"},
		Keys:      []string{"cname"},
	}
}

func TestTemplateValidate(t *testing.T) {
	r := userLogs()
	if err := exampleTemplate().Validate(r); err != nil {
		t.Fatal(err)
	}
	bad := exampleTemplate()
	bad.Funcs = nil
	if bad.Validate(r) == nil {
		t.Error("empty F should fail")
	}
	bad = exampleTemplate()
	bad.AggAttrs = nil
	if bad.Validate(r) == nil {
		t.Error("empty A should fail")
	}
	bad = exampleTemplate()
	bad.Keys = nil
	if bad.Validate(r) == nil {
		t.Error("empty K should fail")
	}
	bad = exampleTemplate()
	bad.PredAttrs = []string{"ghost"}
	if bad.Validate(r) == nil {
		t.Error("missing attr should fail")
	}
}

func TestTemplateStringAndWithPredAttrs(t *testing.T) {
	tpl := exampleTemplate()
	s := tpl.String()
	if !strings.Contains(s, "SUM") || !strings.Contains(s, "department") {
		t.Fatalf("String() = %s", s)
	}
	tpl2 := tpl.WithPredAttrs([]string{"pname"})
	if tpl2.PredAttrs[0] != "pname" || tpl.PredAttrs[0] != "department" {
		t.Fatal("WithPredAttrs must not mutate the receiver")
	}
}

func TestEncodeAttrSet(t *testing.T) {
	uni := []string{"A", "B", "C", "D", "E", "F"}
	enc := EncodeAttrSet(uni, []string{"A", "C", "E", "F"})
	want := []float64{1, 0, 1, 0, 1, 1} // the paper's Section VI.C example
	for i := range want {
		if enc[i] != want[i] {
			t.Fatalf("enc = %v, want %v", enc, want)
		}
	}
}

func TestCanonicalAttrKeyOrderIndependent(t *testing.T) {
	if CanonicalAttrKey([]string{"b", "a"}) != CanonicalAttrKey([]string{"a", "b"}) {
		t.Fatal("key should be order independent")
	}
	if CanonicalAttrKey([]string{"a"}) == CanonicalAttrKey([]string{"a", "b"}) {
		t.Fatal("different sets must differ")
	}
}

func TestPredicateEvalEquality(t *testing.T) {
	r := userLogs()
	mask := allTrue(r.NumRows())
	p := Predicate{Attr: "department", Kind: PredEq, StrValue: "Electronics"}
	if err := p.Eval(r, mask); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true, true, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask = %v", mask)
		}
	}
}

func TestPredicateEvalRange(t *testing.T) {
	r := userLogs()
	mask := allTrue(r.NumRows())
	p := Predicate{Attr: "timestamp", Kind: PredRange, HasLo: true, Lo: 200}
	if err := p.Eval(r, mask); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, true, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask = %v", mask)
		}
	}
	// two-sided
	mask = allTrue(r.NumRows())
	p = Predicate{Attr: "pprice", Kind: PredRange, HasLo: true, Lo: 10, HasHi: true, Hi: 460}
	if err := p.Eval(r, mask); err != nil {
		t.Fatal(err)
	}
	want = []bool{true, false, false, true, true, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("two-sided mask = %v", mask)
		}
	}
}

func TestPredicateEvalNullNeverMatches(t *testing.T) {
	r := dataframe.MustNewTable(
		dataframe.NewFloatColumn("x", []float64{1, 2}, []bool{true, false}),
		dataframe.NewStringColumn("s", []string{"a", ""}, []bool{true, false}),
	)
	mask := allTrue(2)
	p := Predicate{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0}
	if err := p.Eval(r, mask); err != nil {
		t.Fatal(err)
	}
	if mask[1] {
		t.Fatal("NULL should not match a range predicate")
	}
	mask = allTrue(2)
	p = Predicate{Attr: "s", Kind: PredEq, StrValue: ""}
	if err := p.Eval(r, mask); err != nil {
		t.Fatal(err)
	}
	if mask[1] {
		t.Fatal("NULL should not match an equality predicate")
	}
}

func TestPredicateEvalErrors(t *testing.T) {
	r := userLogs()
	mask := allTrue(r.NumRows())
	if err := (Predicate{Attr: "ghost"}).Eval(r, mask); err == nil {
		t.Error("missing column should fail")
	}
	if err := (Predicate{Attr: "pprice", Kind: PredEq}).Eval(r, mask); err == nil {
		t.Error("equality on float column should fail")
	}
	if err := (Predicate{Attr: "department", Kind: PredRange}).Eval(r, mask); err == nil {
		t.Error("range on string column should fail")
	}
	if err := (Predicate{Attr: "pprice", Kind: PredKind(9)}).Eval(r, mask); err == nil {
		t.Error("unknown kind should fail")
	}
	if err := (Predicate{Attr: "pprice", Kind: PredRange}).Eval(r, []bool{true}); err == nil {
		t.Error("mask length mismatch should fail")
	}
}

func TestPredicateStringForms(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{Predicate{Attr: "d", Kind: PredEq, StrValue: "x"}, `d = "x"`},
		{Predicate{Attr: "b", Kind: PredEq, BoolValue: true}, "b = true"},
		{Predicate{Attr: "t", Kind: PredRange, HasLo: true, Lo: 1, HasHi: true, Hi: 2}, "t BETWEEN 1 AND 2"},
		{Predicate{Attr: "t", Kind: PredRange, HasLo: true, Lo: 1}, "t >= 1"},
		{Predicate{Attr: "t", Kind: PredRange, HasHi: true, Hi: 2}, "t <= 2"},
		{Predicate{Attr: "t", Kind: PredRange}, "t IS ANYTHING"},
		{Predicate{Attr: "t", Kind: PredKind(9)}, "?"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if !(Predicate{Kind: PredRange}).Trivial() {
		t.Error("unbounded range should be trivial")
	}
	if (Predicate{Kind: PredEq}).Trivial() {
		t.Error("equality is never trivial")
	}
}

func TestBuildSpaceShape(t *testing.T) {
	r := userLogs()
	s, err := BuildSpace(r, exampleTemplate(), SpaceOptions{MaxCategories: 10, NumGridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	// dims: agg(3), agg_attr(1), eq:department, lo:timestamp, hi:timestamp, key:cname(2)
	if s.NumDims() != 6 {
		t.Fatalf("NumDims = %d; dims=%v", s.NumDims(), s.Dims)
	}
	dom, ok := s.CatDomain("department")
	if !ok || len(dom) != 2 { // Electronics, Food
		t.Fatalf("department domain = %v", dom)
	}
	grid, ok := s.GridValue("timestamp")
	if !ok || len(grid) == 0 {
		t.Fatalf("timestamp grid = %v", grid)
	}
	if s.Size() <= 0 || s.LogSize() <= 0 {
		t.Fatal("size should be positive")
	}
	if _, ok := s.CatDomain("timestamp"); ok {
		t.Error("timestamp should have no cat domain")
	}
	if _, ok := s.GridValue("department"); ok {
		t.Error("department should have no grid")
	}
}

func TestBuildSpaceBoolPredicates(t *testing.T) {
	r := dataframe.MustNewTable(
		dataframe.NewStringColumn("k", []string{"a", "b"}, nil),
		dataframe.NewFloatColumn("v", []float64{1, 2}, nil),
		dataframe.NewBoolColumn("flag", []bool{true, false}, nil),
	)
	tpl := Template{Funcs: []agg.Func{agg.Sum}, AggAttrs: []string{"v"}, PredAttrs: []string{"flag"}, Keys: []string{"k"}}
	s, err := BuildSpace(r, tpl, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// decode flag=true
	q, err := s.Decode([]int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 1 || !q.Preds[0].BoolValue {
		t.Fatalf("preds = %v", q.Preds)
	}
	// decode flag=None
	q, err = s.Decode([]int{0, 0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 0 {
		t.Fatalf("None choice should drop the predicate, got %v", q.Preds)
	}
}

func TestDecodeValidation(t *testing.T) {
	r := userLogs()
	s, _ := BuildSpace(r, exampleTemplate(), SpaceOptions{})
	if _, err := s.Decode([]int{0}); err == nil {
		t.Error("wrong length should fail")
	}
	vec := make([]int, s.NumDims())
	vec[0] = 99
	if _, err := s.Decode(vec); err == nil {
		t.Error("out-of-range dim should fail")
	}
}

func TestDecodeSwapsReversedBoundsAndFullKeyFallback(t *testing.T) {
	r := userLogs()
	s, err := BuildSpace(r, exampleTemplate(), SpaceOptions{NumGridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := s.GridValue("timestamp")
	if len(grid) < 2 {
		t.Skip("grid too small")
	}
	// lo = last grid point, hi = first grid point → must swap
	vec := make([]int, s.NumDims())
	// dims: 0 agg, 1 attr, 2 eq:department (None = card-1), 3 lo, 4 hi, 5 key
	vec[2] = s.Dims[2].Card - 1
	vec[3] = len(grid) - 1
	vec[4] = 0
	vec[5] = 0 // all-zero keys → full K fallback
	q, err := s.Decode(vec)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 1 {
		t.Fatalf("preds = %v", q.Preds)
	}
	p := q.Preds[0]
	if !p.HasLo || !p.HasHi || p.Lo > p.Hi {
		t.Fatalf("bounds not normalised: %+v", p)
	}
	if len(q.Keys) != 1 || q.Keys[0] != "cname" {
		t.Fatalf("keys = %v, want full-K fallback", q.Keys)
	}
}

func TestRandomVectorInBounds(t *testing.T) {
	r := userLogs()
	s, _ := BuildSpace(r, exampleTemplate(), SpaceOptions{})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		vec := s.RandomVector(rng.Intn)
		if _, err := s.Decode(vec); err != nil {
			t.Fatalf("random vector invalid: %v", err)
		}
	}
}

func TestExecutePaperExample(t *testing.T) {
	// SELECT cname, AVG(pprice) FROM User_Logs
	// WHERE department='Electronics' AND timestamp >= 200 GROUP BY cname
	q := Query{
		Agg:     agg.Avg,
		AggAttr: "pprice",
		Preds: []Predicate{
			{Attr: "department", Kind: PredEq, StrValue: "Electronics"},
			{Attr: "timestamp", Kind: PredRange, HasLo: true, Lo: 200},
		},
		Keys: []string{"cname"},
	}
	res, err := q.Execute(userLogs(), "avgprice")
	if err != nil {
		t.Fatal(err)
	}
	// alice: rows ts=200 (500), ts=300 (20) → avg 260; bob: ts=250 (450); carol: 480
	byName := map[string]float64{}
	cn, fv := res.Column("cname"), res.Column("avgprice")
	for i := 0; i < res.NumRows(); i++ {
		byName[cn.Str(i)] = fv.Float(i)
	}
	if byName["alice"] != 260 || byName["bob"] != 450 || byName["carol"] != 480 {
		t.Fatalf("features = %v", byName)
	}
}

func TestAugmentLeftJoinKeepsAllTrainingRows(t *testing.T) {
	q := Query{
		Agg:     agg.Count,
		AggAttr: "pprice",
		Preds:   []Predicate{{Attr: "department", Kind: PredEq, StrValue: "Food"}},
		Keys:    []string{"cname"},
	}
	out, err := q.Augment(userInfo(), userLogs(), "food_cnt")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4 {
		t.Fatalf("rows = %d, want all 4 training rows", out.NumRows())
	}
	f := out.Column("food_cnt")
	// only bob has Food rows; others NULL after left join
	if f.Float(1) != 1 || !f.IsNull(0) || !f.IsNull(2) || !f.IsNull(3) {
		t.Fatalf("food_cnt: %v", f)
	}
}

func TestAugmentMissingKeyFails(t *testing.T) {
	d := dataframe.MustNewTable(dataframe.NewIntColumn("other", []int64{1}, nil))
	q := Query{Agg: agg.Count, AggAttr: "pprice", Keys: []string{"cname"}}
	if _, err := q.Augment(d, userLogs(), "f"); err == nil {
		t.Fatal("missing join key in D should fail")
	}
}

func TestExecuteValidation(t *testing.T) {
	r := userLogs()
	if _, err := (Query{Agg: agg.Sum, AggAttr: "pprice"}).Execute(r, "f"); err == nil {
		t.Error("no keys should fail")
	}
	if _, err := (Query{Agg: agg.Sum, AggAttr: "ghost", Keys: []string{"cname"}}).Execute(r, "f"); err == nil {
		t.Error("missing agg column should fail")
	}
	if _, err := (Query{Agg: agg.Sum, AggAttr: "pprice", Keys: []string{"ghost"}}).Execute(r, "f"); err == nil {
		t.Error("missing key column should fail")
	}
	bad := Query{Agg: agg.Sum, AggAttr: "pprice", Keys: []string{"cname"},
		Preds: []Predicate{{Attr: "ghost"}}}
	if _, err := bad.Execute(r, "f"); err == nil {
		t.Error("bad predicate should fail")
	}
}

func TestExecuteStringAggregation(t *testing.T) {
	q := Query{Agg: agg.CountDistinct, AggAttr: "pname", Keys: []string{"cname"}}
	res, err := q.Execute(userLogs(), "f")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for i := 0; i < res.NumRows(); i++ {
		byName[res.Column("cname").Str(i)] = res.Column("f").Float(i)
	}
	if byName["alice"] != 3 || byName["bob"] != 2 || byName["carol"] != 1 {
		t.Fatalf("distinct counts = %v", byName)
	}
}

func TestExecuteNumericAggOnStringIsAllNull(t *testing.T) {
	q := Query{Agg: agg.Sum, AggAttr: "pname", Keys: []string{"cname"}}
	res, err := q.Execute(userLogs(), "f")
	if err != nil {
		t.Fatal(err)
	}
	f := res.Column("f")
	for i := 0; i < res.NumRows(); i++ {
		if !f.IsNull(i) {
			t.Fatal("SUM over strings should yield NULLs")
		}
	}
}

func TestExecuteDefaultFeatureName(t *testing.T) {
	q := Query{Agg: agg.Count, AggAttr: "pprice", Keys: []string{"cname"}}
	res, err := q.Execute(userLogs(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasColumn("feature") {
		t.Fatal("default feature name missing")
	}
}

func TestQuerySQLAndName(t *testing.T) {
	q := Query{
		Agg:     agg.Avg,
		AggAttr: "pprice",
		Preds: []Predicate{
			{Attr: "department", Kind: PredEq, StrValue: "Electronics"},
			{Attr: "timestamp", Kind: PredRange, HasLo: true, Lo: 1688169600},
		},
		Keys: []string{"cname"},
	}
	sql := q.SQL("User_Logs")
	for _, frag := range []string{"SELECT cname", "AVG(pprice)", "WHERE", "AND", "GROUP BY cname"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL missing %q: %s", frag, sql)
		}
	}
	name := q.Name()
	if strings.ContainsAny(name, " \"=<>") {
		t.Errorf("Name not sanitised: %q", name)
	}
}

// Regression: predicates differing only in operator or sign must yield
// distinct feature names. The old sanitiser dropped '<', '>' and '-', so
// "x >= 5", "x <= 5" and "x = -5"-style predicates collided.
func TestQueryNameEncodesOperators(t *testing.T) {
	base := Query{Agg: agg.Sum, AggAttr: "pprice", Keys: []string{"cname"}}
	variants := []Predicate{
		{Attr: "x", Kind: PredRange, HasLo: true, Lo: 5},
		{Attr: "x", Kind: PredRange, HasHi: true, Hi: 5},
		{Attr: "x", Kind: PredRange, HasLo: true, Lo: 5, HasHi: true, Hi: 5},
		{Attr: "x", Kind: PredRange, HasLo: true, Lo: -5},
		{Attr: "x", Kind: PredRange, HasHi: true, Hi: -5},
		{Attr: "x", Kind: PredEq, StrValue: "5"},
		// Decimal points must not merge with the component separator:
		// BETWEEN 1.5 AND 2 vs BETWEEN 1 AND 5.2 collided before.
		{Attr: "x", Kind: PredRange, HasLo: true, Lo: 1.5, HasHi: true, Hi: 2},
		{Attr: "x", Kind: PredRange, HasLo: true, Lo: 1, HasHi: true, Hi: 5.2},
		// An empty-string category must not collide with literal "false".
		{Attr: "x", Kind: PredEq, StrValue: ""},
		{Attr: "x", Kind: PredEq, StrValue: "false"},
	}
	seen := map[string]string{}
	for _, p := range variants {
		q := base
		q.Preds = []Predicate{p}
		name := q.Name()
		if prev, dup := seen[name]; dup {
			t.Fatalf("name collision %q between %s and %s", name, prev, p.String())
		}
		seen[name] = p.String()
		if strings.ContainsAny(name, " \"=<>-.") {
			t.Errorf("Name not sanitised: %q", name)
		}
	}
	for name, pred := range map[string]Predicate{
		"sum_pprice_x_ge_5":        {Attr: "x", Kind: PredRange, HasLo: true, Lo: 5},
		"sum_pprice_x_le_5":        {Attr: "x", Kind: PredRange, HasHi: true, Hi: 5},
		"sum_pprice_x_between_5_5": {Attr: "x", Kind: PredRange, HasLo: true, Lo: 5, HasHi: true, Hi: 5},
		"sum_pprice_x_ge_n5":       {Attr: "x", Kind: PredRange, HasLo: true, Lo: -5},
		"sum_pprice_x_eq_s5":       {Attr: "x", Kind: PredEq, StrValue: "5"},
		"sum_pprice_flag_eq_btrue": {Attr: "flag", Kind: PredEq, BoolValue: true},
	} {
		q := base
		q.Preds = []Predicate{pred}
		if got := q.Name(); got != name {
			t.Errorf("Name(%s) = %q, want %q", pred.String(), got, name)
		}
	}
}

// Property: for any random vector, decoding yields a query that executes
// without error and produces at most as many groups as distinct keys.
func TestPropertyDecodeExecuteTotal(t *testing.T) {
	r := userLogs()
	s, err := BuildSpace(r, exampleTemplate(), SpaceOptions{NumGridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	distinctKeys := len(r.Column("cname").DistinctStrings(0))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vec := s.RandomVector(rng.Intn)
		q, err := s.Decode(vec)
		if err != nil {
			return false
		}
		res, err := q.Execute(r, "f")
		if err != nil {
			return false
		}
		return res.NumRows() <= distinctKeys
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func allTrue(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// Property: conjoining an additional predicate never enlarges the match set
// (WHERE clauses are monotone under AND).
func TestPropertyPredicateConjunctionMonotone(t *testing.T) {
	r := userLogs()
	s, err := BuildSpace(r, exampleTemplate(), SpaceOptions{NumGridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		mask := allTrue(r.NumRows())
		prevCount := r.NumRows()
		for _, p := range q.Preds {
			if err := p.Eval(r, mask); err != nil {
				t.Fatal(err)
			}
			count := 0
			for _, m := range mask {
				if m {
					count++
				}
			}
			if count > prevCount {
				t.Fatalf("predicate %s enlarged the match set", p)
			}
			prevCount = count
		}
	}
}

// Property: a query's result has at most one row per distinct key present in
// the filtered rows, and the feature column never reuses key names.
func TestPropertyExecuteGroupUniqueness(t *testing.T) {
	r := userLogs()
	s, err := BuildSpace(r, exampleTemplate(), SpaceOptions{NumGridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 100; trial++ {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(r, "feature")
		if err != nil {
			t.Fatal(err)
		}
		keyCols := make([]*dataframe.Column, len(q.Keys))
		for i, k := range q.Keys {
			keyCols[i] = res.Column(k)
		}
		seen := map[string]bool{}
		for i := 0; i < res.NumRows(); i++ {
			k := res.RowKey(i, keyCols)
			if seen[k] {
				t.Fatalf("duplicate group key %q in result", k)
			}
			seen[k] = true
		}
	}
}
