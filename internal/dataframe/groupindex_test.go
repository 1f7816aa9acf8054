package dataframe

import (
	"math/rand"
	"slices"
	"testing"
)

// refGroupIndex is the generic string-keyed grouping algorithm, kept inline
// as the reference every BuildGroupIndex path must match exactly.
func refGroupIndex(t *testing.T, tbl *Table, keys ...string) (rowGID []int, keyStrs []string, sizes []int) {
	t.Helper()
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		cols[i] = tbl.Column(k)
		if cols[i] == nil {
			t.Fatalf("no column %q", k)
		}
	}
	ids := map[string]int{}
	rowGID = make([]int, tbl.NumRows())
	for i := 0; i < tbl.NumRows(); i++ {
		k := tbl.RowKey(i, cols)
		gid, ok := ids[k]
		if !ok {
			gid = len(keyStrs)
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

// checkGroupIndexRef compares g against refGroupIndex's first-seen grouping
// over Table.RowKey: per-row group ids (which fix each group's first row),
// sizes and Key(gid) bytes.
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
	for gid := range keyStrs {
		if g.Key(gid) != keyStrs[gid] || gotSizes[gid] != sizes[gid] {
			t.Fatalf("%s: group %d (key %q size %d) vs reference (key %q size %d)",
				name, gid, g.Key(gid), gotSizes[gid], keyStrs[gid], sizes[gid])
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
	if g.Key(0) != "salice" || g.Key(1) != "sbob" {
		t.Fatalf("first-seen order = %q, %q", g.Key(0), g.Key(1))
	}
	if sizes := groupSizes(g); sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("group sizes = %v, want [3 2]", sizes)
	}
	if _, ok := g.Lookup("ghost"); ok {
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

// TestBuildGroupIndexIntFastPath checks the map[int64]int fast path for
// single integer and time keys — including NULL keys, which must form their
// own group — against the generic composite-string reference, for group ids,
// key strings, representatives and sizes alike.
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

// TestBuildGroupIndexFastPathJoinCompatible ensures the fast path's key
// strings still line up with a generic-path index over equivalent string
// spellings — the property the executor's join mapping relies on when both
// sides group on the same key-set.
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
	lookup := map[string]int{}
	for gid := 0; gid < gr.NumGroups(); gid++ {
		lookup[gr.Key(gid)] = gid
	}
	wants := map[int64]bool{3: true, 7: true, 1: false}
	for i, gid := range gl.RowGroups() {
		v := left.Column("k").Int(i)
		if _, ok := lookup[gl.Key(gid)]; ok != wants[v] {
			t.Fatalf("key %d: join match %v, want %v", v, ok, wants[v])
		}
	}
}
