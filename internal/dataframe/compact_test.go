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

// TestCompactAppendSemantics pins the PR 9 fallback contract on compact
// columns: in-domain appends stay compact; a mid-domain value or a
// cap-crossing delta rematerialises the strings first, and the column then
// behaves exactly like a raw one.
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
	if !slices.Equal(c.Dict().Values(), []string{"a", "b", "d"}) {
		t.Fatalf("domain = %v", c.Dict().Values())
	}

	// Mid-domain value: "c" sorts inside {a,b,d} — codes shift, so the column
	// must rematerialise and re-encode like a raw column would.
	c = mk()
	c.AppendStr("c")
	if c.IsCompact() {
		t.Fatal("mid-domain append left the column compact")
	}
	for i, w := range []string{"a", "b", "d", "b", "c"} {
		if c.Str(i) != w {
			t.Fatalf("after shift, row %d = %q, want %q", i, c.Str(i), w)
		}
	}
	if enc := c.Dict(); enc == nil || !slices.Equal(enc.Values(), []string{"a", "b", "c", "d"}) {
		t.Fatal("re-encode after rematerialise lost the new domain")
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
	// Mutating the clone must not corrupt the original (domain is shared but
	// append-safe).
	cc.AppendStr("aa")
	sameStringColumn(t, "clone-after-append", raw.Column("s"), comp.Column("s"))
}

// TestConcatCompactSplice is the Concat fast-path satellite: equal-domain
// built encodings splice code arrays (output compact iff all inputs are);
// unequal domains fall back to the generic append loop and still produce
// from-scratch-identical results.
func TestConcatCompactSplice(t *testing.T) {
	_, a := compactPair(t, 120, 3)
	_, b := compactPair(t, 90, 4) // same cats pool => same domain
	rawA, _ := compactPair(t, 120, 3)
	rawB, _ := compactPair(t, 90, 4)

	got, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Column("s").IsCompact() {
		t.Error("equal-domain compact concat is not compact")
	}
	want, err := Concat(rawA, rawB)
	if err != nil {
		t.Fatal(err)
	}
	sameStringColumn(t, "splice", want.Column("s"), got.Column("s"))
	// The splice must share no per-row state with its inputs: appending to the
	// output leaves the inputs untouched.
	preA, preB := a.Column("s").Str(0), b.Column("s").Str(0)
	got.Column("s").AppendStr("e")
	if a.Column("s").Str(0) != preA || b.Column("s").Str(0) != preB {
		t.Error("splice output aliases its inputs")
	}

	// Mixed compact/raw inputs with one shared BUILT domain: fast path still
	// applies, output falls back to raw storage but keeps the encoding.
	_, c1 := compactPair(t, 60, 5)
	r2, _ := compactPair(t, 40, 6)
	r2.Column("s").Dict() // build without compacting
	mixed, err := Concat(c1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Column("s").IsCompact() {
		t.Error("mixed compact/raw concat claimed compact storage")
	}
	wantMixed, err := Concat(func() *Table { x, _ := compactPair(t, 60, 5); return x }(), func() *Table { x, _ := compactPair(t, 40, 6); return x }())
	if err != nil {
		t.Fatal(err)
	}
	sameStringColumn(t, "mixed", wantMixed.Column("s"), mixed.Column("s"))

	// Unequal-domain fallback regression: a table whose domain differs forces
	// the generic path; results still match from-scratch concat.
	d1 := MustNewTable(NewStringColumn("s", []string{"a", "b", "a"}, nil), NewIntColumn("x", []int64{1, 2, 3}, nil))
	d2 := MustNewTable(NewStringColumn("s", []string{"zz", "b", "zz"}, nil), NewIntColumn("x", []int64{4, 5, 6}, nil))
	if d1.Compact() != 1 || d2.Compact() != 1 {
		t.Fatal("setup: compact failed")
	}
	uneq, err := Concat(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []string{"a", "b", "a", "zz", "b", "zz"}
	for i, w := range wantRows {
		if uneq.Column("s").Str(i) != w {
			t.Fatalf("unequal-domain concat row %d = %q, want %q", i, uneq.Column("s").Str(i), w)
		}
	}
	if enc := uneq.Column("s").Dict(); enc == nil || !slices.Equal(enc.Values(), []string{"a", "b", "zz"}) {
		t.Error("unequal-domain concat did not re-encode the merged domain")
	}
}

// TestDistinctStringsFromDomain is the cardinality-probe satellite: the probe
// reads the encoded domain (sorted already) and must drop inherited domain
// values absent from the rows — a Take-derived compact column keeps the full
// parent domain but exposes only its own rows' values.
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
	// A sliced view: only rows whose value is "aa" or "dd" — the inherited
	// domain still holds six values, the probe must report two.
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
		t.Fatalf("inherited-domain DistinctStrings = %v, want [aa dd]", got)
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
// mid-domain values that force a re-encode or rematerialise a compact
// column, cardinality-cap crossings), compaction, dictionary builds, and the
// columns derived by filtering, taking, cloning, joining and concatenating.
func TestMemBytesRunningCount(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	domain := []string{"a", "c", "e", "gg", "kkk"}
	value := func(mode int) string {
		switch mode {
		case 1: // sorts inside the domain: shifts codes
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
