package dataframe

// GroupIndex is a precomputed partition of a table's rows by a key-set: every
// row is assigned an int32 group id (numbered in first-seen order; a table
// holds at most MaxRows rows, so ids never wrap), so
// repeated grouping work against the same (table, key-set) pair reduces to
// integer array lookups instead of hashing. The index keeps the map that
// identifies each group by its key values — raw int64s for a single int/time
// key, the composite RowKey string for any other key set — so appended rows
// (Extend) and another table's rows (LookupRow) resolve to their group with
// one probe. The query executor computes one per (table, key-set), reuses it
// for every query that groups on the same keys, and joins training and
// request rows straight into it.
type GroupIndex struct {
	src     *Table
	keys    []*Column
	rowGID  []int32 // group id per row
	ngroups int

	// The group identity map; exactly one is set, by key shape.
	ints    map[int64]int32  // one int/time key; its NULL group is nullGID
	nullGID int32            // -1 until a NULL key is seen
	strs    map[string]int32 // any other key set, by RowKey string
}

// BuildGroupIndex assigns every row of the table its group id under the
// composite value of the named key columns. NULL keys form their own group,
// matching SQL GROUP BY semantics. A single int/time key hashes raw values
// in a map[int64]int; every other key set is identified by its RowKey string
// (int and time values compare equal there too). The build is Extend from
// row zero, so a built index and an extended one are the same loop's output.
func (t *Table) BuildGroupIndex(keyCols ...string) (*GroupIndex, error) {
	cols, err := t.resolveColumns(keyCols)
	if err != nil {
		return nil, err
	}
	g := &GroupIndex{src: t, keys: cols, nullGID: -1, rowGID: make([]int32, 0, t.nrows)}
	if len(cols) == 1 && (cols[0].kind == KindInt || cols[0].kind == KindTime) {
		g.ints = make(map[int64]int32)
	} else {
		g.strs = make(map[string]int32)
	}
	g.Extend()
	return g, nil
}

// newGroup returns the next group id.
func (g *GroupIndex) newGroup() int32 {
	g.ngroups++
	return int32(g.ngroups - 1)
}

// Extend advances the index over the rows appended to the source table since
// the build (or the last Extend), probing the group identity map with each
// new row and assigning new keys fresh group ids in first-seen order — the
// loop the build runs from row zero, so an extended index is identical to
// one rebuilt from scratch over the grown table (the map holds key values,
// never dictionary codes). It costs O(delta). Must run
// under the table's mutation contract (no concurrent scans or lookups).
func (g *GroupIndex) Extend() {
	n := g.src.nrows
	switch {
	case g.ints != nil:
		c := g.keys[0]
		for i := len(g.rowGID); i < n; i++ {
			var gid int32
			if !c.valid[i] {
				if g.nullGID < 0 {
					g.nullGID = g.newGroup()
				}
				gid = g.nullGID
			} else {
				var ok bool
				if gid, ok = g.ints[c.ints[i]]; !ok {
					gid = g.newGroup()
					g.ints[c.ints[i]] = gid
				}
			}
			g.rowGID = append(g.rowGID, gid)
		}
	default:
		buf := make([]byte, 0, 48)
		for i := len(g.rowGID); i < n; i++ {
			buf = appendRowKey(buf[:0], i, g.keys)
			// string(buf) in the lookup does not allocate; the key string
			// is only materialised when a new group is created.
			gid, ok := g.strs[string(buf)]
			if !ok {
				gid = g.newGroup()
				g.strs[string(buf)] = gid
			}
			g.rowGID = append(g.rowGID, gid)
		}
	}
}

// LookupRow returns the group whose key equals row `row` of cols — another
// table's columns, one per key column of the index, in order — under
// LeftJoin's key equality: int and time values compare equal, NULL matches
// the NULL group, and a non-NULL value never matches a key of another kind.
// It is one map probe; a RowKey probe is formatted into a stack buffer. Safe
// for concurrent use with other reads of the index.
func (g *GroupIndex) LookupRow(cols []*Column, row int) (int32, bool) {
	if g.ints != nil {
		c := cols[0]
		if !c.valid[row] {
			return g.nullGID, g.nullGID >= 0
		}
		if c.kind != KindInt && c.kind != KindTime {
			return -1, false
		}
		gid, ok := g.ints[c.ints[row]]
		return gid, ok
	}
	var buf [64]byte
	gid, ok := g.strs[string(appendRowKey(buf[:0], row, cols))]
	return gid, ok
}

// NumGroups returns the number of distinct composite keys.
func (g *GroupIndex) NumGroups() int { return g.ngroups }

// RowGroups exposes the per-row group-id slice. The slice is shared; callers
// must not mutate it.
func (g *GroupIndex) RowGroups() []int32 { return g.rowGID }
