package query

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// domainRows builds a relevant table of n rows starting at row id off: a
// key, a numeric and a string predicate attribute with NULLs, and a bool.
func domainRows(off, n int) *dataframe.Table {
	keys := make([]int64, n)
	price := make([]float64, n)
	priceOK := make([]bool, n)
	dept := make([]string, n)
	deptOK := make([]bool, n)
	flag := make([]bool, n)
	for i := range n {
		r := off + i
		keys[i] = int64(r % 7)
		price[i] = float64((r*37)%101) + 0.25*float64(r%3)
		priceOK[i] = r%5 != 0
		dept[i] = fmt.Sprintf("d%02d", (r*13)%(5+r/8))
		deptOK[i] = r%6 != 0
		flag[i] = r%2 == 0
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k", keys, nil),
		dataframe.NewFloatColumn("price", price, priceOK),
		dataframe.NewStringColumn("dept", dept, deptOK),
		dataframe.NewBoolColumn("flag", flag, nil),
	)
}

func domainTemplate(preds ...string) Template {
	return Template{Funcs: []agg.Func{agg.Sum}, AggAttrs: []string{"price"}, PredAttrs: preds, Keys: []string{"k"}}
}

// sameBacking reports whether two non-empty slices share their first element,
// i.e. come from one computation rather than two equal ones.
func sameBacking[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// spaceDomains returns the grid of price and the category list of dept.
func spaceDomains(t *testing.T, s *Space) ([]float64, []string) {
	t.Helper()
	grid, ok := s.GridValue("price")
	if !ok || len(grid) == 0 {
		t.Fatalf("no price grid in %v", s.Dims)
	}
	cats, ok := s.CatDomain("dept")
	if !ok || len(cats) == 0 {
		t.Fatalf("no dept domain in %v", s.Dims)
	}
	return grid, cats
}

func TestSpaceDomainComputedOncePerTable(t *testing.T) {
	r := domainRows(0, 200)
	s1, err := BuildSpace(r, domainTemplate("price", "dept"), SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Another template, explicit default options, and a SpaceCache: each
	// reads the table's domains rather than computing its own.
	s2, err := BuildSpace(r, domainTemplate("dept", "flag", "price"), SpaceOptions{MaxCategories: DefaultMaxCategories, NumGridPoints: DefaultNumGridPoints})
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewSpaceCache(r, SpaceOptions{}).Space(domainTemplate("price", "dept"))
	if err != nil {
		t.Fatal(err)
	}
	g1, c1 := spaceDomains(t, s1)
	for i, s := range []*Space{s2, s3} {
		g, c := spaceDomains(t, s)
		if !sameBacking(g1, g) || !sameBacking(c1, c) {
			t.Errorf("space %d recomputed a domain over the same table", i+2)
		}
	}
	if got := len(coreOf(r).spaceDims); got != 3 {
		t.Errorf("table holds %d domains, want 3 (price, dept, flag)", got)
	}

	// Other options shape other domains.
	s4, err := BuildSpace(r, domainTemplate("price", "dept"), SpaceOptions{MaxCategories: 2, NumGridPoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g, c := spaceDomains(t, s4); len(g) > 3 || len(c) != 2 || sameBacking(g1, g) {
		t.Errorf("options {2,3}: grid %v, categories %v", g, c)
	}

	// A clone starts with an empty scan state: equal domains, its own
	// computation.
	s5, err := BuildSpace(r.Clone(), domainTemplate("price", "dept"), SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g5, c5 := spaceDomains(t, s5)
	if sameBacking(g1, g5) || sameBacking(c1, c5) {
		t.Error("a clone shares its parent's domains")
	}
	if !reflect.DeepEqual(g1, g5) || !reflect.DeepEqual(c1, c5) {
		t.Errorf("clone domains %v %v, parent %v %v", g5, c5, g1, c1)
	}
}

func TestSpaceDomainAfterAppend(t *testing.T) {
	r := domainRows(0, 60)
	tpl := domainTemplate("price", "dept", "flag")
	before, err := BuildSpace(r, tpl, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gBefore, cBefore := spaceDomains(t, before)
	gKeep, cKeep := append([]float64(nil), gBefore...), append([]string(nil), cBefore...)

	for _, batch := range []*dataframe.Table{domainRows(60, 40), domainRows(100, 3)} {
		if _, _, err := Append(r, batch); err != nil {
			t.Fatal(err)
		}
	}
	after, err := BuildSpace(r, tpl, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildSpace(domainRows(0, 103), tpl, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gAfter, cAfter := spaceDomains(t, after)
	gFresh, cFresh := spaceDomains(t, fresh)
	if !reflect.DeepEqual(gAfter, gFresh) || !reflect.DeepEqual(cAfter, cFresh) {
		t.Errorf("after append: grid %v, categories %v; fresh table: %v, %v", gAfter, cAfter, gFresh, cFresh)
	}
	if !reflect.DeepEqual(after.Dims, fresh.Dims) {
		t.Errorf("after append dims %v, fresh table %v", after.Dims, fresh.Dims)
	}
	if reflect.DeepEqual(gKeep, gFresh) && reflect.DeepEqual(cKeep, cFresh) {
		t.Fatal("the appends did not change the domains; the test shows nothing")
	}
	// The space built before the appends keeps its domains.
	if !reflect.DeepEqual(gBefore, gKeep) || !reflect.DeepEqual(cBefore, cKeep) {
		t.Errorf("an append rewrote an earlier space's domains: %v %v, want %v %v", gBefore, cBefore, gKeep, cKeep)
	}
}

// TestSpaceDomainConcurrentAppend builds spaces while appends land. Every
// space must see the table at some whole epoch: its domains equal those of a
// fresh table holding one of the append prefixes. Run under -race.
func TestSpaceDomainConcurrentAppend(t *testing.T) {
	const base, step, appends = 50, 7, 12
	tpl := domainTemplate("price", "dept")
	type domains struct {
		grid []float64
		cats []string
	}
	var want []domains
	for i := 0; i <= appends; i++ {
		s, err := BuildSpace(domainRows(0, base+i*step), tpl, SpaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, c := spaceDomains(t, s)
		want = append(want, domains{g, c})
	}

	r := domainRows(0, base)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range appends {
			if _, _, err := Append(r, domainRows(base+i*step, step)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 40 {
				var s *Space
				var err error
				if w == 0 {
					s, err = NewSpaceCache(r, SpaceOptions{}).Space(tpl)
				} else {
					s, err = BuildSpace(r, tpl, SpaceOptions{})
				}
				if err != nil {
					errs <- err
					return
				}
				g, _ := s.GridValue("price")
				c, _ := s.CatDomain("dept")
				ok := false
				for _, d := range want {
					if reflect.DeepEqual(g, d.grid) && reflect.DeepEqual(c, d.cats) {
						ok = true
						break
					}
				}
				if !ok {
					errs <- fmt.Errorf("space with grid %v, categories %v matches no epoch", g, c)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s, err := BuildSpace(r, tpl, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g, c := spaceDomains(t, s); !reflect.DeepEqual(g, want[appends].grid) || !reflect.DeepEqual(c, want[appends].cats) {
		t.Errorf("final grid %v, categories %v; want %v, %v", g, c, want[appends].grid, want[appends].cats)
	}
}

// TestQuantileGridPinned pins quantileGrid's edge cases to the outputs of the
// sort-and-index grid: NULLs and NaN (stored as NULL) skipped, infinities
// kept as ordinary extremes, a constant column collapsing to one point, one
// grid point taking the median, and +0 picked over -0 where they tie.
func TestQuantileGridPinned(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		col  *dataframe.Column
		n    int
		want []float64
	}{
		{"nulls", dataframe.NewFloatColumn("x", []float64{3, 9, 1, 7, 2, 4, 8}, []bool{true, false, true, false, true, true, true}), 4, []float64{1, 2, 3, 8}},
		{"nan", dataframe.NewFloatColumn("x", []float64{math.NaN(), 1, 2, math.NaN(), 5}, nil), 3, []float64{1, 2, 5}},
		{"inf", dataframe.NewFloatColumn("x", []float64{inf, -inf, 0, 1, 2, -inf, 3}, nil), 8, []float64{-inf, 0, 1, 2, 3, inf}},
		{"constant", dataframe.NewFloatColumn("x", []float64{5, 5, 5, 5, 5}, nil), 8, []float64{5}},
		{"one point", dataframe.NewFloatColumn("x", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, nil), 1, []float64{5}},
		{"all null", dataframe.NewFloatColumn("x", []float64{1, 2}, []bool{false, false}), 8, nil},
		{"signed zero", dataframe.NewFloatColumn("x", []float64{0, negZero, 0, negZero, 1, negZero, 0}, nil), 3, []float64{0, 1}},
		{"int", dataframe.NewIntColumn("x", []int64{40, -3, 7, 7, 100, 0, 12, 55, 21}, nil), 5, []float64{-3, 7, 12, 40, 100}},
		{"time", dataframe.NewTimeColumn("x", []int64{1700000300, 1700000100, 1700000200}, []bool{true, true, false}), 8, []float64{1700000100, 1700000300}},
	} {
		got := quantileGrid(tc.col, tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("%s: grid %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(tc.want[i]) {
				t.Errorf("%s: grid %v, want %v (bitwise)", tc.name, got, tc.want)
				break
			}
		}
	}
}
