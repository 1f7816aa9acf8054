package dataframe

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// compactPair builds the same random string-bearing table twice and compacts
// one copy, returning (raw, compact) for differential checks.
func compactPair(t *testing.T, n int, seed int64) (*Table, *Table) {
	t.Helper()
	mk := func() *Table {
		rng := rand.New(rand.NewSource(seed))
		cats := []string{"a", "aa", "b", "c", "dd", "e"}
		s := make([]string, n)
		sv := make([]bool, n)
		x := make([]int64, n)
		for i := 0; i < n; i++ {
			s[i] = cats[rng.Intn(len(cats))]
			sv[i] = rng.Float64() > 0.2
			x[i] = int64(rng.Intn(100))
		}
		return MustNewTable(
			NewStringColumn("s", s, sv),
			NewIntColumn("x", x, nil),
		)
	}
	raw, comp := mk(), mk()
	if got := comp.Compact(); got != 1 {
		t.Fatalf("Compact() = %d columns, want 1", got)
	}
	return raw, comp
}

// sameStringColumn requires two columns to agree row for row through the
// public readers (Str, Value, IsNull) — the compact column has no []string
// backing, so every agreement exercises the lazy decode.
func sameStringColumn(t *testing.T, label string, raw, comp *Column) {
	t.Helper()
	if raw.Len() != comp.Len() {
		t.Fatalf("%s: %d rows vs %d", label, raw.Len(), comp.Len())
	}
	for i := 0; i < raw.Len(); i++ {
		if raw.IsNull(i) != comp.IsNull(i) {
			t.Fatalf("%s row %d: null %v vs %v", label, i, raw.IsNull(i), comp.IsNull(i))
		}
		if raw.IsNull(i) {
			continue // NULL rows are unreadable; raw may hold constructor garbage
		}
		if raw.Str(i) != comp.Str(i) {
			t.Fatalf("%s row %d: %q vs %q", label, i, raw.Str(i), comp.Str(i))
		}
		if raw.Value(i) != comp.Value(i) {
			t.Fatalf("%s row %d: Value %v vs %v", label, i, raw.Value(i), comp.Value(i))
		}
	}
}

func TestCompactBasics(t *testing.T) {
	raw, comp := compactPair(t, 300, 1)
	sc := comp.Column("s")
	if !sc.IsCompact() {
		t.Fatal("column not compact after Table.Compact")
	}
	if sc.StrData() != nil {
		t.Fatal("compact column still carries a []string backing")
	}
	if sc.Dict() == nil {
		t.Fatal("compact column lost its encoding")
	}
	sameStringColumn(t, "compact", raw.Column("s"), sc)
	// Idempotent; non-string and unencodable columns decline.
	if !sc.Compact() {
		t.Error("second Compact() on a compact column returned false")
	}
	if comp.Column("x").Compact() {
		t.Error("Compact() accepted an int column")
	}
	hi := make([]string, 2000)
	for i := range hi {
		hi[i] = fmt.Sprintf("u%05d", i)
	}
	hc := NewStringColumn("hc", hi, nil)
	if hc.Compact() {
		t.Error("Compact() accepted a column above MaxDictCardinality")
	}
	if hc.Str(7) != "u00007" {
		t.Error("declined Compact() damaged the column")
	}
}

// TestCompactAppendSemantics pins the append contract on compact columns:
// every append below the cap — in the domain, inside it, NULLs — extends the
// codes in place and stays compact; a cap-crossing delta rematerialises the
// strings first, and the column then behaves exactly like a raw one.
func TestCompactAppendSemantics(t *testing.T) {
	mk := func() *Column {
		c := NewStringColumn("s", []string{"a", "b", "d", "b"}, nil)
		if c.Dict() == nil || !c.Compact() {
			t.Fatal("setup: compact failed")
		}
		return c
	}
	// In-domain append (and NULLs): stays compact, reads stay correct.
	c := mk()
	c.AppendStr("d")
	c.AppendNull()
	c.AppendStr("a")
	if !c.IsCompact() {
		t.Fatal("in-domain append dropped compact storage")
	}
	wantRows := []string{"a", "b", "d", "b", "d", "", "a"}
	for i, w := range wantRows {
		if c.Str(i) != w {
			t.Fatalf("row %d = %q, want %q", i, c.Str(i), w)
		}
	}
	if !slices.Equal(c.Dict().values, []string{"a", "b", "d"}) {
		t.Fatalf("domain = %v", c.Dict().values)
	}

	// Mid-domain value: "c" sorts inside {a,b,d}. It takes the next code, so
	// the column stays compact and the domain keeps its sorted order beside.
	c = mk()
	enc := c.Dict()
	c.AppendStr("c")
	if !c.IsCompact() || c.Dict() != enc {
		t.Fatal("mid-domain append left compact storage or swapped the encoding")
	}
	for i, w := range []string{"a", "b", "d", "b", "c"} {
		if c.Str(i) != w {
			t.Fatalf("after a mid-domain append, row %d = %q, want %q", i, c.Str(i), w)
		}
	}
	if !slices.Equal(enc.values, []string{"a", "b", "d", "c"}) || !slices.Equal(c.DistinctStrings(0), []string{"a", "b", "c", "d"}) {
		t.Fatalf("domain %v, distinct %v", enc.values, c.DistinctStrings(0))
	}

	// Cap crossing: the dictionary drops entirely; the strings must survive.
	other := make([]string, 1200)
	for i := range other {
		other[i] = fmt.Sprintf("v%04d", i)
	}
	big := NewStringColumn("s", other, nil)
	c = mk()
	tb := MustNewTable(c)
	if err := tb.AppendRows(MustNewTable(big)); err != nil {
		t.Fatal(err)
	}
	if c.IsCompact() {
		t.Fatal("cap-crossing append left the column compact")
	}
	if c.Dict() != nil {
		t.Fatal("cap-crossing append kept an encoding")
	}
	if c.Str(0) != "a" || c.Str(3) != "b" || c.Str(4) != "v0000" || c.Str(4+1199) != "v1199" {
		t.Fatal("rows corrupted across the cap-crossing rematerialise")
	}
}

// TestCompactMidDomainAppendCostsCodes is the bar for keeping served columns
// compact: after a mid-domain append a compact column is still compact and
// MemBytes grows by the new row (validity and code) and the new domain entry
// only, no strings coming back; a cap crossing still rematerialises them.
func TestCompactMidDomainAppendCostsCodes(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "c", "e", "a"}, nil)
	if !c.Compact() {
		t.Fatal("setup: compact failed")
	}
	before := c.MemBytes()
	c.AppendStr("b")
	if !c.IsCompact() {
		t.Fatal("mid-domain append rematerialised the column")
	}
	if got, want := c.MemBytes()-before, 1+2+strCellBytes("b")+2; got != want {
		t.Fatalf("MemBytes grew by %d, want %d (row validity, code, domain entry, sorted entry)", got, want)
	}
	for i := 0; c.IsCompact(); i++ {
		c.AppendStr(fmt.Sprintf("v%04d", i))
		if i > MaxDictCardinality {
			t.Fatal("cap crossing kept the column compact")
		}
	}
	if c.Dict() != nil || c.Str(4) != "b" || c.Str(c.Len()-1) != fmt.Sprintf("v%04d", MaxDictCardinality-4) {
		t.Fatal("cap crossing lost the encoding's rows")
	}
}

// TestCompactTakeClone checks the derived-column paths keep compact storage
// and read back the same strings as the raw column.
func TestCompactTakeClone(t *testing.T) {
	raw, comp := compactPair(t, 400, 2)
	idx := []int{5, 0, 399, 17, 17, 250, 3}
	rt, ct := raw.Take(idx), comp.Take(idx)
	if !ct.Column("s").IsCompact() {
		t.Error("Take dropped compact storage")
	}
	sameStringColumn(t, "take", rt.Column("s"), ct.Column("s"))

	cc := comp.Column("s").Clone()
	if !cc.IsCompact() {
		t.Error("Clone dropped compact storage")
	}
	sameStringColumn(t, "clone", raw.Column("s"), cc)
	// Appending to the clone must not corrupt the original.
	cc.AppendStr("aa")
	sameStringColumn(t, "clone-after-append", raw.Column("s"), comp.Column("s"))

	// Nor may a mid-domain append to the source corrupt what was derived
	// from it: the source's domain grows in place ("ab" sorts inside it).
	rc := raw.Column("s").Clone() // cc's rows: the source's plus "aa"
	rc.AppendStr("aa")
	for _, v := range []string{"ab", "bb", "0", "zz"} {
		comp.Column("s").AppendStr(v)
	}
	for _, tc := range []struct {
		label     string
		raw, comp *Column
	}{{"take-after-source-append", rt.Column("s"), ct.Column("s")}, {"clone-after-source-append", rc, cc}} {
		sameStringColumn(t, tc.label, tc.raw, tc.comp)
		if got, want := tc.comp.DistinctStrings(0), tc.raw.DistinctStrings(0); !slices.Equal(got, want) {
			t.Errorf("%s: DistinctStrings %q, want %q", tc.label, got, want)
		}
		for _, v := range tc.raw.DistinctStrings(0) {
			code, ok := tc.comp.Dict().CodeOf(v)
			if !ok || tc.comp.Dict().values[code] != v {
				t.Errorf("%s: CodeOf(%q) = %d, %v", tc.label, v, code, ok)
			}
		}
	}
}

// TestConcatCompactSplice checks that Concat's output storage follows its
// first input: a compact first table gives a compact output (its rows and
// those appended after it extend the codes), a raw first table a raw one, and
// either reads the same rows as a concat of raw tables, sharing no per-row
// state with its inputs.
func TestConcatCompactSplice(t *testing.T) {
	_, a := compactPair(t, 120, 3)
	_, b := compactPair(t, 90, 4)
	rawA, _ := compactPair(t, 120, 3)
	rawB, _ := compactPair(t, 90, 4)
	want, err := Concat(rawA, rawB)
	if err != nil {
		t.Fatal(err)
	}
	if want.Column("s").IsCompact() {
		t.Error("raw concat claimed compact storage")
	}
	for _, tc := range []struct {
		name   string
		tables []*Table
	}{{"compact+compact", []*Table{a, b}}, {"compact+raw", []*Table{a, rawB}}} {
		got, err := Concat(tc.tables...)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Column("s").IsCompact() {
			t.Errorf("%s: concat after a compact first input is not compact", tc.name)
		}
		sameStringColumn(t, tc.name, want.Column("s"), got.Column("s"))
		// Appending to the output leaves the inputs untouched.
		preA, preB := a.Column("s").Str(0), tc.tables[1].Column("s").Str(0)
		got.Column("s").AppendStr("zz")
		if a.Column("s").Str(0) != preA || tc.tables[1].Column("s").Str(0) != preB ||
			slices.Contains(a.Column("s").Dict().values, "zz") {
			t.Errorf("%s: concat output aliases its inputs", tc.name)
		}
	}
	mixed, err := Concat(rawA, b)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Column("s").IsCompact() {
		t.Error("concat after a raw first input claimed compact storage")
	}
	sameStringColumn(t, "raw+compact", want.Column("s"), mixed.Column("s"))

	// Inputs over different domains: the output's domain is the union in
	// first-seen order.
	d1 := MustNewTable(NewStringColumn("s", []string{"b", "a", "b"}, nil), NewIntColumn("x", []int64{1, 2, 3}, nil))
	d2 := MustNewTable(NewStringColumn("s", []string{"zz", "b", "aa"}, nil), NewIntColumn("x", []int64{4, 5, 6}, nil))
	if d1.Compact() != 1 || d2.Compact() != 1 {
		t.Fatal("setup: compact failed")
	}
	uneq, err := Concat(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []string{"b", "a", "b", "zz", "b", "aa"}
	for i, w := range wantRows {
		if uneq.Column("s").Str(i) != w {
			t.Fatalf("unequal-domain concat row %d = %q, want %q", i, uneq.Column("s").Str(i), w)
		}
	}
	if enc := uneq.Column("s").Dict(); enc == nil || !slices.Equal(enc.values, []string{"b", "a", "zz", "aa"}) {
		t.Error("unequal-domain concat did not extend the first input's domain")
	}
}

// TestDistinctStringsFromDomain checks the cardinality probe, which reads the
// encoded domain in sorted order, on a compact column and on a compact Take
// of it, whose domain holds only the values its rows use.
func TestDistinctStringsFromDomain(t *testing.T) {
	raw, comp := compactPair(t, 200, 7)
	want := raw.Column("s").DistinctStrings(0)
	got := comp.Column("s").DistinctStrings(0)
	if !slices.Equal(got, want) {
		t.Fatalf("DistinctStrings = %v, want %v", got, want)
	}
	if lim := comp.Column("s").DistinctStrings(2); !slices.Equal(lim, want[:2]) {
		t.Fatalf("limited DistinctStrings = %v, want %v", lim, want[:2])
	}
	// A sliced view: only rows whose value is "aa" or "dd" — of the
	// source's six values the taken domain keeps two.
	var idx []int
	for i := 0; i < raw.NumRows(); i++ {
		c := raw.Column("s")
		if !c.IsNull(i) && (c.Str(i) == "aa" || c.Str(i) == "dd") {
			idx = append(idx, i)
		}
	}
	sub := comp.Take(idx).Column("s")
	if !sub.IsCompact() {
		t.Fatal("take lost compact storage")
	}
	if got := sub.DistinctStrings(0); !slices.Equal(got, []string{"aa", "dd"}) {
		t.Fatalf("taken DistinctStrings = %v, want [aa dd]", got)
	}
	if n := len(sub.Dict().values); n != 2 {
		t.Fatalf("taken domain holds %d values, want 2", n)
	}
}

// TestCompactTakeBelowCap checks that a compact Take of a column at the
// cardinality cap counts only its own rows' values toward the cap: a new
// value appended to two taken rows keeps it compact, encoded exactly as its
// three rows would be from scratch.
func TestCompactTakeBelowCap(t *testing.T) {
	strs := make([]string, MaxDictCardinality)
	for i := range strs {
		strs[i] = fmt.Sprintf("v%04d", i)
	}
	c := NewStringColumn("s", strs, nil)
	if !c.Compact() {
		t.Fatal("setup: compact failed")
	}
	sub := c.Take([]int{700, 3})
	sub.AppendStr("new")
	if !sub.IsCompact() {
		t.Fatal("a new value on two taken rows rematerialised the column")
	}
	want := dictTwoPass([]string{"v0700", "v0003", "new"}, []bool{true, true, true}, MaxDictCardinality)
	if diff := sameDict(sub.Dict(), want); diff != "" {
		t.Fatalf("taken encoding vs from scratch: %s", diff)
	}
}

// TestCompactCSVAndGrouping covers the remaining StrData consumers: CSV
// encode, group building and join keys read compact columns through the
// decoding accessors.
func TestCompactCSVAndGrouping(t *testing.T) {
	raw, comp := compactPair(t, 150, 8)
	var rbuf, cbuf bytes.Buffer
	if err := raw.WriteCSV(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := comp.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	if rbuf.String() != cbuf.String() {
		t.Fatal("CSV output diverges between raw and compact")
	}

	rg, err := raw.BuildGroupIndex("s")
	if err != nil {
		t.Fatal(err)
	}
	cg, err := comp.BuildGroupIndex("s")
	if err != nil {
		t.Fatal(err)
	}
	if cg.NumGroups() != rg.NumGroups() {
		t.Fatalf("group count %d vs raw %d", cg.NumGroups(), rg.NumGroups())
	}
	cs, rs := groupSizes(cg), groupSizes(rg)
	cr, rr := reprRows(cg), reprRows(rg)
	for gid := 0; gid < rg.NumGroups(); gid++ {
		ck, rk := comp.RowKey(cr[gid], cg.keys), raw.RowKey(rr[gid], rg.keys)
		if cr[gid] != rr[gid] || ck != rk || cs[gid] != rs[gid] {
			t.Errorf("group %d: row %d %q/%d rows vs raw row %d %q/%d", gid, cr[gid], ck, cs[gid], rr[gid], rk, rs[gid])
		}
	}

	right := MustNewTable(
		NewStringColumn("s", []string{"a", "b", "c"}, nil),
		NewFloatColumn("w", []float64{1, 2, 3}, nil),
	)
	rj, err := raw.LeftJoin(right, []string{"s"}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	cj, err := comp.LeftJoin(right, []string{"s"}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rj.NumRows(); i++ {
		rn, cnl := rj.Column("w").IsNull(i), cj.Column("w").IsNull(i)
		if rn != cnl || (!rn && rj.Column("w").Float(i) != cj.Column("w").Float(i)) {
			t.Fatalf("join row %d diverges", i)
		}
	}
}

// TestMemBytesCompactReduction is the memory-observability satellite's unit
// check: the per-column breakdown reports compact flags, and dropping the
// []string backing must cut the string column's resident bytes at least 2x.
func TestMemBytesCompactReduction(t *testing.T) {
	raw, comp := compactPair(t, 4096, 9)
	// Build the raw encoding too: the comparison is "raw post-encode" vs
	// compact, the steady serving state on both sides.
	raw.Column("s").Dict()
	rawTotal, rawCols := raw.MemBytes()
	compTotal, compCols := comp.MemBytes()
	if rawTotal <= 0 || compTotal <= 0 || len(rawCols) != 2 || len(compCols) != 2 {
		t.Fatalf("MemBytes shape: %d/%d bytes, %d/%d cols", rawTotal, compTotal, len(rawCols), len(compCols))
	}
	var rawS, compS int64
	for _, cm := range rawCols {
		if cm.Name == "s" {
			rawS = cm.Bytes
			if cm.Compact {
				t.Error("raw column reported compact")
			}
		}
	}
	for _, cm := range compCols {
		if cm.Name == "s" {
			compS = cm.Bytes
			if !cm.Compact {
				t.Error("compact column not flagged in the breakdown")
			}
		}
	}
	if rawS < 2*compS {
		t.Errorf("string column bytes raw=%d compact=%d, want >= 2x reduction", rawS, compS)
	}
	if comp.Column("x").MemBytes() != raw.Column("x").MemBytes() {
		t.Error("non-string column accounting diverges")
	}
}

// walkMemBytes is Column.MemBytes with the running raw-string count
// discarded, so every cell is walked — the reference the count must match.
func walkMemBytes(c *Column) int64 {
	cp := *c
	cp.strBytes, cp.strCounted = 0, 0
	return cp.MemBytes()
}

// TestMemBytesRunningCount: the running raw-string byte count covers every
// raw cell once the table has taken an append, and keeps MemBytes equal to a
// full walk through random appends (bulk and per value, NULLs,
// mid-domain values, cardinality-cap crossings that rematerialise a compact
// column), compaction, dictionary builds, and the
// columns derived by filtering, taking, cloning, joining and concatenating.
func TestMemBytesRunningCount(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	domain := []string{"a", "c", "e", "gg", "kkk"}
	value := func(mode int) string {
		switch mode {
		case 1: // sorts inside the domain
			return domain[rng.Intn(len(domain))] + "b"
		case 2: // distinct every time: crosses MaxDictCardinality eventually
			return fmt.Sprintf("v%06d", rng.Intn(1000000))
		}
		return domain[rng.Intn(len(domain))]
	}
	batch := func(n, mode int) *Table {
		s := make([]string, n)
		sv := make([]bool, n)
		x := make([]int64, n)
		for i := range s {
			s[i], sv[i], x[i] = value(mode), rng.Float64() > 0.2, int64(rng.Intn(10))
		}
		return MustNewTable(NewStringColumn("s", s, sv), NewIntColumn("x", x, nil))
	}
	check := func(step int, label string, tbl *Table) {
		t.Helper()
		for _, c := range tbl.Columns() {
			if got, want := c.MemBytes(), walkMemBytes(c); got != want {
				t.Fatalf("step %d %s column %q: MemBytes %d, full walk %d", step, label, c.Name(), got, want)
			}
		}
	}
	tbl := batch(200, 0)
	solo := NewStringColumn("solo", []string{"a", "b"}, nil)
	right := MustNewTable(NewIntColumn("x", []int64{1, 3, 5}, nil), NewStringColumn("r", []string{"one", "three", "five"}, nil))
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); op {
		case 0, 1, 2:
			b := batch(1+rng.Intn(40), 0)
			if rng.Intn(2) == 0 {
				b.Compact()
			}
			if err := tbl.AppendRows(b); err != nil {
				t.Fatal(err)
			}
		case 3:
			mode := 1
			if rng.Intn(8) == 0 {
				mode = 2
			}
			if err := tbl.AppendRows(batch(1+rng.Intn(20), mode)); err != nil {
				t.Fatal(err)
			}
		case 4:
			tbl.Compact()
			solo.Compact()
		case 5:
			tbl.Column("s").Dict()
			solo.Dict()
		case 6:
			switch rng.Intn(3) {
			case 0:
				solo.AppendNull()
			default:
				solo.AppendStr(value(rng.Intn(2)))
			}
			check(step, "solo", MustNewTable(solo))
		case 7:
			check(step, "filter", tbl.Filter(func(int) bool { return rng.Intn(3) == 0 }))
			check(step, "take", tbl.Take([]int{0, tbl.NumRows() - 1, 0}))
		case 8:
			check(step, "clone", tbl.Clone())
			j, err := tbl.LeftJoin(right, []string{"x"}, []string{"x"})
			if err != nil {
				t.Fatal(err)
			}
			check(step, "join", j)
		case 9:
			cc, err := Concat(tbl, batch(1+rng.Intn(10), 0))
			if err != nil {
				t.Fatal(err)
			}
			check(step, "concat", cc)
		}
		check(step, "table", tbl)
		if c := tbl.Column("s"); tbl.Epoch() > 0 && c.strCounted != len(c.strs) {
			t.Fatalf("step %d: %d of %d raw cells counted after an append; MemBytes would walk the rest", step, c.strCounted, len(c.strs))
		}
	}
}
