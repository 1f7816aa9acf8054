package dataframe

// GroupIndex is a precomputed partition of a table's rows by a key-set: every
// row is assigned an integer group id (numbered in first-seen order), so
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
	rowGID  []int // group id per row
	ngroups int

	// The group identity map; exactly one is set, by key shape.
	ints    map[int64]int  // one int/time key; its NULL group is nullGID
	nullGID int            // -1 until a NULL key is seen
	strs    map[string]int // any other key set, by RowKey string
}

// BuildGroupIndex scans the table once and assigns every row its group id
// under the composite value of the named key columns. NULL keys form their
// own group, matching SQL GROUP BY semantics.
//
// A single int/time key hashes raw values in a map[int64]int. Every other
// key set is identified by its RowKey string (int and time values compare
// equal there too); a single dictionary-encoded string key indexes a dense
// code table, and an all-string key-set whose every column carries a
// dictionary maps composite codes (dense when the code-space product is
// small, a map[uint64]int otherwise), so those builds format one key per
// group, not per row. Group numbering and NULL-group handling are identical
// across every path.
func (t *Table) BuildGroupIndex(keyCols ...string) (*GroupIndex, error) {
	cols, err := t.resolveColumns(keyCols)
	if err != nil {
		return nil, err
	}
	g := &GroupIndex{src: t, keys: cols, nullGID: -1}
	if len(cols) == 1 && (cols[0].kind == KindInt || cols[0].kind == KindTime) {
		g.ints = make(map[int64]int)
	} else {
		g.strs = make(map[string]int)
		if len(cols) == 1 && cols[0].kind == KindString {
			if enc := cols[0].Dict(); enc != nil {
				g.buildSingleString(cols[0], enc)
				return g, nil
			}
		}
		if encs, ok := comboDicts(cols); ok {
			g.buildStringCombo(cols, encs)
			return g, nil
		}
	}
	g.rowGID = make([]int, 0, t.nrows)
	g.Extend()
	return g, nil
}

// buildSingleString is the dictionary fast path for one string key column:
// rows index a dense code->gid table (one extra slot for the NULL group)
// instead of hashing.
func (g *GroupIndex) buildSingleString(c *Column, enc *DictEncoding) {
	card := enc.Cardinality()
	codes, valid := enc.Codes(), c.ValidData()
	gidOf := make([]int, card+1) // slot card = NULL
	for i := range gidOf {
		gidOf[i] = -1
	}
	g.rowGID = make([]int, g.src.nrows)
	for i := range g.rowGID {
		slot := card
		if valid[i] {
			slot = int(codes[i])
		}
		gid := gidOf[slot]
		if gid < 0 {
			gid = g.newStrGroup(i)
			gidOf[slot] = gid
		}
		g.rowGID[i] = gid
	}
}

// comboDictBound caps the composite code space Π(cardinality+1) so the
// stride arithmetic below cannot overflow; beyond it the generic path runs.
const comboDictBound = uint64(1) << 62

// comboDicts returns the dictionary of every key column when there are
// several, ALL of them dictionary-encoded strings, and the composite code
// space stays within comboDictBound; (nil, false) sends the build down the
// generic path.
func comboDicts(cols []*Column) ([]*DictEncoding, bool) {
	if len(cols) < 2 {
		return nil, false
	}
	encs := make([]*DictEncoding, len(cols))
	space := uint64(1)
	for j, c := range cols {
		if c.Kind() != KindString {
			return nil, false
		}
		enc := c.Dict()
		if enc == nil {
			return nil, false
		}
		encs[j] = enc
		slots := uint64(enc.Cardinality() + 1) // +1 for the NULL slot
		if space > comboDictBound/slots {
			return nil, false
		}
		space *= slots
	}
	return encs, true
}

// buildStringCombo is the dictionary fast path for an all-string key-set:
// each row's composite code is the mixed-radix number of its per-column
// slots (code, or cardinality for NULL). Small code spaces index a dense
// table; larger ones hash the uint64 — either way no per-row key string is
// built.
func (g *GroupIndex) buildStringCombo(cols []*Column, encs []*DictEncoding) {
	n := g.src.nrows
	codes := make([][]uint16, len(encs))
	valids := make([][]bool, len(encs))
	cards := make([]uint64, len(encs))
	space := uint64(1)
	for j, enc := range encs {
		codes[j] = enc.Codes()
		valids[j] = cols[j].ValidData()
		cards[j] = uint64(enc.Cardinality())
		space *= cards[j] + 1
	}
	rowCode := func(i int) uint64 {
		code := uint64(0)
		for j := range encs {
			slot := cards[j]
			if valids[j][i] {
				slot = uint64(codes[j][i])
			}
			code = code*(cards[j]+1) + slot
		}
		return code
	}
	g.rowGID = make([]int, n)
	// Dense only when the code space is commensurate with the table; a
	// sparse huge domain would spend more on clearing than it saves.
	if space <= uint64(4*n)+1024 {
		gidOf := make([]int, space)
		for i := range gidOf {
			gidOf[i] = -1
		}
		for i := 0; i < n; i++ {
			code := rowCode(i)
			gid := gidOf[code]
			if gid < 0 {
				gid = g.newStrGroup(i)
				gidOf[code] = gid
			}
			g.rowGID[i] = gid
		}
		return
	}
	ids := make(map[uint64]int)
	for i := 0; i < n; i++ {
		code := rowCode(i)
		gid, ok := ids[code]
		if !ok {
			gid = g.newStrGroup(i)
			ids[code] = gid
		}
		g.rowGID[i] = gid
	}
}

// newStrGroup registers row i's RowKey string as a fresh group and returns
// its id.
func (g *GroupIndex) newStrGroup(i int) int {
	gid := g.newGroup()
	g.strs[string(appendRowKey(nil, i, g.keys))] = gid
	return gid
}

// newGroup returns the next group id.
func (g *GroupIndex) newGroup() int {
	g.ngroups++
	return g.ngroups - 1
}

// Extend advances the index over the rows appended to the source table since
// the build (or the last Extend), probing the group identity map with each
// new row and assigning new keys fresh group ids in first-seen order — the
// same loop the build runs over every row, so an extended index is identical
// to one rebuilt from scratch over the grown table, for any build path and
// across a dictionary re-encode (the map holds key values, not codes). It
// costs O(delta). Must run under the table's mutation contract (no
// concurrent scans or lookups).
func (g *GroupIndex) Extend() {
	n := g.src.nrows
	switch {
	case g.ints != nil:
		c := g.keys[0]
		for i := len(g.rowGID); i < n; i++ {
			var gid int
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
func (g *GroupIndex) LookupRow(cols []*Column, row int) (int, bool) {
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

// NumRows returns the number of rows in the indexed table.
func (g *GroupIndex) NumRows() int { return len(g.rowGID) }

// RowGroups exposes the per-row group-id slice. The slice is shared; callers
// must not mutate it.
func (g *GroupIndex) RowGroups() []int { return g.rowGID }
