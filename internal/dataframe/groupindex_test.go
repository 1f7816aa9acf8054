package dataframe

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// refGroupIndex is the generic string-keyed grouping algorithm, kept inline
// as the reference BuildGroupIndex must match exactly.
func refGroupIndex(t *testing.T, tbl *Table, keys ...string) (rowGID []int32, keyStrs []string, sizes []int) {
	t.Helper()
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		cols[i] = tbl.Column(k)
		if cols[i] == nil {
			t.Fatalf("no column %q", k)
		}
	}
	ids := map[string]int32{}
	rowGID = make([]int32, tbl.NumRows())
	for i := 0; i < tbl.NumRows(); i++ {
		k := tbl.RowKey(i, cols)
		gid, ok := ids[k]
		if !ok {
			gid = int32(len(keyStrs))
			ids[k] = gid
			keyStrs = append(keyStrs, k)
			sizes = append(sizes, 0)
		}
		rowGID[i] = gid
		sizes[gid]++
	}
	return rowGID, keyStrs, sizes
}

// groupSizes counts each group's rows from the index's per-row group ids.
func groupSizes(g *GroupIndex) []int {
	sizes := make([]int, g.NumGroups())
	for _, gid := range g.RowGroups() {
		sizes[gid]++
	}
	return sizes
}

// reprRows returns each group's representative row: its first row.
func reprRows(g *GroupIndex) []int {
	repr := make([]int, g.NumGroups())
	for i := range repr {
		repr[i] = -1
	}
	for i, gid := range g.RowGroups() {
		if repr[gid] < 0 {
			repr[gid] = i
		}
	}
	return repr
}

// checkGroupIndexRef compares g against refGroupIndex's first-seen grouping
// over Table.RowKey: per-row group ids (which fix each group's first row),
// sizes and each group's representative-row key.
func checkGroupIndexRef(t *testing.T, name string, tbl *Table, g *GroupIndex, keys ...string) {
	t.Helper()
	rowGID, keyStrs, sizes := refGroupIndex(t, tbl, keys...)
	if g.NumGroups() != len(keyStrs) {
		t.Fatalf("%s: %d groups vs reference %d", name, g.NumGroups(), len(keyStrs))
	}
	if !slices.Equal(g.RowGroups(), rowGID) {
		t.Fatalf("%s: row group ids differ from the reference", name)
	}
	gotSizes := groupSizes(g)
	for gid, row := range reprRows(g) {
		if k := tbl.RowKey(row, g.keys); k != keyStrs[gid] || gotSizes[gid] != sizes[gid] {
			t.Fatalf("%s: group %d (key %q size %d) vs reference (key %q size %d)",
				name, gid, k, gotSizes[gid], keyStrs[gid], sizes[gid])
		}
	}
}

// TestGroupByCountsAndOrder checks GROUP BY semantics on a string key:
// groups are numbered in first-seen order and sized by their rows.
func TestGroupByCountsAndOrder(t *testing.T) {
	g, err := logsTable(t).BuildGroupIndex("cname")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d", g.NumGroups())
	}
	tbl, repr := g.src, reprRows(g)
	if k0, k1 := tbl.RowKey(repr[0], g.keys), tbl.RowKey(repr[1], g.keys); k0 != "salice" || k1 != "sbob" {
		t.Fatalf("first-seen order = %q, %q", k0, k1)
	}
	if sizes := groupSizes(g); sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("group sizes = %v, want [3 2]", sizes)
	}
	ghost := []*Column{NewStringColumn("cname", []string{"ghost"}, nil)}
	if _, ok := g.LookupRow(ghost, 0); ok {
		t.Fatal("missing key should not resolve")
	}
}

func TestGroupByUnknownColumn(t *testing.T) {
	if _, err := logsTable(t).BuildGroupIndex("ghost"); err == nil {
		t.Fatal("unknown key should fail")
	}
}

func TestGroupByNullKeysFormOwnGroup(t *testing.T) {
	tbl := MustNewTable(
		NewStringColumn("k", []string{"a", "", "a"}, []bool{true, false, true}),
		NewFloatColumn("v", []float64{1, 2, 3}, nil),
	)
	g, err := tbl.BuildGroupIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2 (value group + NULL group)", g.NumGroups())
	}
}

// TestBuildGroupIndexIntFastPath checks the map[int64]int path for single
// integer and time keys — including NULL keys, which must form their own
// group — against the RowKey-string reference: group ids, each group's
// representative row's key, and sizes.
func TestBuildGroupIndexIntFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 400
	vals := make([]int64, n)
	valid := make([]bool, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(25)) - 12 // negatives exercise key encoding
		valid[i] = rng.Float64() > 0.1
	}
	for _, kind := range []string{"int", "time"} {
		var col *Column
		if kind == "int" {
			col = NewIntColumn("k", vals, valid)
		} else {
			col = NewTimeColumn("k", vals, valid)
		}
		tbl := MustNewTable(col)
		g, err := tbl.BuildGroupIndex("k")
		if err != nil {
			t.Fatal(err)
		}
		checkGroupIndexRef(t, kind, tbl, g, "k")
	}
}

// TestBuildGroupIndexFastPathJoinCompatible checks LookupRow on the int
// path: each row of another table resolves to the group whose representative
// row holds the same key, and a key the index lacks misses — the property the
// executor's join row map relies on.
func TestBuildGroupIndexFastPathJoinCompatible(t *testing.T) {
	left := MustNewTable(NewIntColumn("k", []int64{3, 1, 3, 7}, nil))
	right := MustNewTable(NewIntColumn("k", []int64{7, 3}, nil))
	gl, err := left.BuildGroupIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	gr, err := right.BuildGroupIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int64]bool{3: true, 7: true, 1: false}
	rrepr := reprRows(gr)
	for i := range gl.RowGroups() {
		v := left.Column("k").Int(i)
		rg, ok := gr.LookupRow(gl.keys, i)
		if ok != wants[v] {
			t.Fatalf("key %d: join match %v, want %v", v, ok, wants[v])
		}
		if ok && right.Column("k").Int(rrepr[rg]) != v {
			t.Fatalf("key %d joined group %d of key %d", v, rg, right.Column("k").Int(rrepr[rg]))
		}
	}
}

// FuzzGroupIndexMatchesRowKey builds a group index over 1-3 key columns of
// int, time or string kind (NULLs included), extends it over two appended
// batches and probes it with another table's rows, whose columns are of any
// kind (float, string and bool as well). Group ids and sizes must equal the
// first-seen grouping of Table.RowKey strings, and every probe must find
// exactly the group whose RowKey string equals the probe row's — LeftJoin's
// key equality: int and time compare equal, NULL matches NULL, and values of
// other kinds never match.
func FuzzGroupIndexMatchesRowKey(f *testing.F) {
	f.Add([]byte{0, 0, 20, 8, 16, 9, 17, 25, 33, 8, 0, 41, 9, 17, 3, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 1, 30, 10, 20, 9, 10, 11, 12, 13, 0, 8, 9, 17, 0, 1, 0, 2, 3, 4, 0, 3, 1})
	f.Add([]byte{2, 4, 1, 0, 24, 5, 12, 16, 24, 8, 0, 8, 16, 1, 9, 17, 25, 33, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 2, 4, 36, 3, 30, 0, 40, 8, 16, 24, 32, 9, 17, 3, 4, 2, 3, 1, 0, 9, 8, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		kinds := []Kind{KindInt, KindTime, KindString, KindFloat, KindBool}
		// gen draws a column: 1 in 8 values NULL, the rest in -2..2.
		gen := func(name string, kind Kind, rows int) *Column {
			valid := make([]bool, rows)
			ints := make([]int64, rows)
			for i := range ints {
				b := next()
				valid[i] = b%8 != 0
				ints[i] = int64(b>>3)%5 - 2
			}
			switch kind {
			case KindInt:
				return NewIntColumn(name, ints, valid)
			case KindTime:
				return NewTimeColumn(name, ints, valid)
			case KindFloat:
				fs := make([]float64, rows)
				for i, v := range ints {
					fs[i] = float64(v)
				}
				return NewFloatColumn(name, fs, valid)
			case KindBool:
				bs := make([]bool, rows)
				for i, v := range ints {
					bs[i] = v > 0
				}
				return NewBoolColumn(name, bs, valid)
			}
			ss := make([]string, rows)
			for i, v := range ints {
				ss[i] = strconv.FormatInt(v, 10)
			}
			return NewStringColumn(name, ss, valid)
		}

		w := 1 + next()%3
		keys := make([]string, w)
		keyKinds := make([]Kind, w)
		for j := range keys {
			keys[j] = "k" + strconv.Itoa(j)
			// Mostly int and time keys; string keys reach the string path.
			keyKinds[j] = []Kind{KindInt, KindTime, KindInt, KindTime, KindString}[next()%5]
		}
		n := next() % 48
		cut1 := next() % (n + 1)
		cut2 := cut1 + next()%(n-cut1+1)
		cols := make([]*Column, w)
		for j := range cols {
			cols[j] = gen(keys[j], keyKinds[j], n)
		}
		full := MustNewTable(cols...)
		span := func(lo, hi int) *Table {
			idx := make([]int, hi-lo)
			for i := range idx {
				idx[i] = lo + i
			}
			return full.Take(idx)
		}
		tbl := span(0, cut1)
		g, err := tbl.BuildGroupIndex(keys...)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*Table{span(cut1, cut2), span(cut2, n)} {
			if err := tbl.AppendRows(b); err != nil {
				t.Fatal(err)
			}
			g.Extend()
		}
		checkGroupIndexRef(t, "built+extended", tbl, g, keys...)
		rowGID, keyStrs, _ := refGroupIndex(t, tbl, keys...)
		for i := range rowGID {
			if gid, ok := g.LookupRow(g.keys, i); !ok || gid != rowGID[i] {
				t.Fatalf("own row %d: LookupRow = %d, %v; want %d", i, gid, ok, rowGID[i])
			}
		}

		ref := make(map[string]int32, len(keyStrs))
		for gid, k := range keyStrs {
			ref[k] = int32(gid)
		}
		m := next() % 24
		probeCols := make([]*Column, w)
		for j := range probeCols {
			kind := keyKinds[j]
			if b := next(); b%2 == 1 {
				kind = kinds[(b/2)%len(kinds)]
			}
			probeCols[j] = gen(keys[j], kind, m)
		}
		probe := MustNewTable(probeCols...)
		for i := 0; i < m; i++ {
			k := probe.RowKey(i, probeCols)
			want, wok := ref[k]
			got, ok := g.LookupRow(probeCols, i)
			if ok != wok || (ok && got != want) {
				t.Fatalf("probe row %d (key %q): LookupRow = %d, %v; want %d, %v", i, k, got, ok, want, wok)
			}
		}
	})
}

// groupTestTable builds a grouping table mixing cardinalities, NULL densities
// and kinds: string columns below the dictionary cap and one (big) above it.
func groupTestTable(tb testing.TB, rows int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	s1 := make([]string, rows) // low cardinality, some NULLs
	v1 := make([]bool, rows)
	s2 := make([]string, rows) // higher cardinality
	s3 := make([]string, rows) // single value
	big := make([]string, rows)
	iv := make([]int64, rows)
	for i := 0; i < rows; i++ {
		s1[i] = fmt.Sprintf("c%d", rng.Intn(5))
		v1[i] = rng.Intn(10) != 0
		s2[i] = fmt.Sprintf("g%03d", rng.Intn(40))
		s3[i] = "only"
		big[i] = fmt.Sprintf("b%06d", i) // distinct per row
		iv[i] = int64(rng.Intn(7))
	}
	tbl, err := NewTable(
		NewStringColumn("s1", s1, v1),
		NewStringColumn("s2", s2, nil),
		NewStringColumn("s3", s3, nil),
		NewStringColumn("big", big, nil),
		NewIntColumn("iv", iv, nil),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestGroupIndexDictEquivalence is the group-build differential: for string,
// mixed-kind and repeated key sets over dictionary-encoded columns, the index
// must be IDENTICAL — group ids, sizes, representatives and key bytes — to the
// test-local first-seen grouping.
func TestGroupIndexDictEquivalence(t *testing.T) {
	tbl := groupTestTable(t, MaxDictCardinality+100, 11)
	keySets := [][]string{
		{"s1"},             // single string, NULL group
		{"s2"},             // single string, wider domain
		{"s3"},             // single value
		{"s1", "s2"},       // all strings
		{"s2", "s1", "s3"}, // all strings, order matters
		{"s1", "iv"},       // mixed kinds
		{"iv", "s1", "s2"}, // mixed, int-led
		{"s1", "s1"},       // repeated key column
	}
	for _, keys := range keySets {
		got, err := tbl.BuildGroupIndex(keys...)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupIndexRef(t, fmt.Sprintf("%v", keys), tbl, got, keys...)
	}
}

// TestGroupIndexComboOverCap checks an all-string key set with one column
// above the dictionary cap still matches the reference grouping.
func TestGroupIndexComboOverCap(t *testing.T) {
	const rows = MaxDictCardinality + 100
	tbl := groupTestTable(t, rows, 11)
	if tbl.Column("big").Dict() != nil {
		t.Fatal("big is encoded; the above-the-cap key set tests nothing")
	}
	got, err := tbl.BuildGroupIndex("s1", "big")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumGroups() != rows {
		t.Fatalf("[s1 big] groups = %d, want %d (big is distinct per row)", got.NumGroups(), rows)
	}
	checkGroupIndexRef(t, "[s1 big]", tbl, got, "s1", "big")
}
