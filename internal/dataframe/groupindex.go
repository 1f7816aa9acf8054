package dataframe

import "sync"

// GroupIndex is a precomputed partition of a table's rows by a key-set: every
// row is assigned an integer group id (numbered in first-seen order), so
// repeated grouping work against the same (table, key-set) pair reduces to
// integer array lookups instead of string-keyed hashing. The query executor
// computes one per (table, key-set) and reuses it for every query that groups
// on the same keys.
type GroupIndex struct {
	src     *Table
	keys    []*Column
	rowGID  []int    // group id per row
	keyStrs []string // composite key string per group, first-seen order

	idsOnce sync.Once
	ids     map[string]int // key string -> gid, built by the first Lookup or Extend
}

// BuildGroupIndex scans the table once and assigns every row its group id
// under the composite value of the named key columns. NULL keys form their
// own group, matching SQL GROUP BY semantics.
//
// Key shapes with integer structure skip the composite string keys entirely:
// a single int/time key hashes raw int64s, a single dictionary-encoded string
// key indexes a dense code table, and an all-string key-set whose every
// column carries a dictionary maps composite codes (dense when the code-space
// product is small, a map[uint64]int otherwise). Group numbering, NULL-group
// handling and Key(gid) bytes are identical across every path.
func (t *Table) BuildGroupIndex(keyCols ...string) (*GroupIndex, error) {
	cols, err := t.resolveColumns(keyCols)
	if err != nil {
		return nil, err
	}
	g := &GroupIndex{
		src:    t,
		keys:   cols,
		rowGID: make([]int, t.nrows),
	}
	if len(cols) == 1 && (cols[0].Kind() == KindInt || cols[0].Kind() == KindTime) {
		g.buildSingleInt(cols[0])
		return g, nil
	}
	if len(cols) == 1 && cols[0].Kind() == KindString {
		if enc := cols[0].Dict(); enc != nil {
			g.buildSingleString(cols[0], enc)
			return g, nil
		}
	}
	if len(cols) > 1 {
		if encs, ok := comboDicts(cols); ok {
			g.buildStringCombo(cols, encs)
			return g, nil
		}
	}
	ids := make(map[string]int)
	buf := make([]byte, 0, 48)
	for i := 0; i < t.nrows; i++ {
		buf = appendRowKey(buf[:0], i, cols)
		// string(buf) in the lookup does not allocate; the key string is
		// only materialised when a new group is created.
		gid, ok := ids[string(buf)]
		if !ok {
			gid = len(g.keyStrs)
			k := string(buf)
			ids[k] = gid
			g.keyStrs = append(g.keyStrs, k)
		}
		g.rowGID[i] = gid
	}
	return g, nil
}

// buildSingleInt is the fast path for the most common key shape — one integer
// (or timestamp) key column: rows hash through a map[int64]int instead of
// composite string keys, skipping the per-row key formatting entirely. The
// composite key string is still materialised once per group (not per row), so
// Key(gid) stays byte-identical with the generic path.
func (g *GroupIndex) buildSingleInt(c *Column) {
	vals, valid := c.IntData(), c.ValidData()
	ids := make(map[int64]int)
	nullGID := -1
	for i := range g.rowGID {
		var gid int
		if !valid[i] {
			// NULL keys form their own single group, as in the generic path.
			if nullGID < 0 {
				nullGID = g.newGroup(i, c)
			}
			gid = nullGID
		} else {
			v := vals[i]
			id, ok := ids[v]
			if !ok {
				id = g.newGroup(i, c)
				ids[v] = id
			}
			gid = id
		}
		g.rowGID[i] = gid
	}
}

// buildSingleString is the dictionary fast path for one string key column:
// rows index a dense code->gid table (one extra slot for the NULL group)
// instead of hashing, with the composite key string still materialised once
// per group so Key(gid) stays byte-identical with the generic path.
func (g *GroupIndex) buildSingleString(c *Column, enc *DictEncoding) {
	card := enc.Cardinality()
	codes, valid := enc.Codes(), c.ValidData()
	gidOf := make([]int, card+1) // slot card = NULL
	for i := range gidOf {
		gidOf[i] = -1
	}
	for i := range g.rowGID {
		slot := card
		if valid[i] {
			slot = int(codes[i])
		}
		gid := gidOf[slot]
		if gid < 0 {
			gid = g.newGroup(i, c)
			gidOf[slot] = gid
		}
		g.rowGID[i] = gid
	}
}

// comboDictBound caps the composite code space Π(cardinality+1) so the
// stride arithmetic below cannot overflow; beyond it the generic path runs.
const comboDictBound = uint64(1) << 62

// comboDicts returns the dictionary of every key column when ALL of them are
// dictionary-encoded strings and the composite code space stays within
// comboDictBound; (nil, false) sends the build down the generic path.
func comboDicts(cols []*Column) ([]*DictEncoding, bool) {
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
// built, and Key(gid) bytes still come from appendRowKey once per group.
func (g *GroupIndex) buildStringCombo(cols []*Column, encs []*DictEncoding) {
	n := len(g.rowGID)
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
				gid = g.newGroupRow(i, cols)
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
			gid = g.newGroupRow(i, cols)
			ids[code] = gid
		}
		g.rowGID[i] = gid
	}
}

// newGroupRow is newGroup over a composite key-set.
func (g *GroupIndex) newGroupRow(i int, cols []*Column) int {
	gid := len(g.keyStrs)
	g.keyStrs = append(g.keyStrs, string(appendRowKey(nil, i, cols)))
	return gid
}

// newGroup registers row i as the representative of a fresh group and returns
// its id.
func (g *GroupIndex) newGroup(i int, c *Column) int {
	gid := len(g.keyStrs)
	g.keyStrs = append(g.keyStrs, string(c.AppendKey(nil, i)))
	return gid
}

// Extend advances the index over the rows appended to the source table since
// the build (or the last Extend), assigning new composite keys fresh group
// ids in first-seen order. Because every build path numbers groups in
// first-seen order and materialises identical Key(gid) bytes, an extended
// index is identical to one rebuilt from scratch over the grown table — for
// any build path, including after a dictionary re-encode (extension keys on
// composite values, not codes). The first Extend re-derives a key→gid map
// from keyStrs (O(groups)) unless Lookup already did; later calls pay
// O(delta). Must run under the table's mutation contract (no concurrent
// scans or Lookups).
func (g *GroupIndex) Extend() {
	n := g.src.nrows
	old := len(g.rowGID)
	if old >= n {
		return
	}
	g.idsOnce.Do(g.buildIDs)
	buf := make([]byte, 0, 48)
	for i := old; i < n; i++ {
		buf = appendRowKey(buf[:0], i, g.keys)
		gid, ok := g.ids[string(buf)]
		if !ok {
			gid = len(g.keyStrs)
			k := string(buf)
			g.ids[k] = gid
			g.keyStrs = append(g.keyStrs, k)
		}
		g.rowGID = append(g.rowGID, gid)
	}
}

// buildIDs derives the key -> gid map from keyStrs.
func (g *GroupIndex) buildIDs() {
	g.ids = make(map[string]int, len(g.keyStrs))
	for gid, k := range g.keyStrs {
		g.ids[k] = gid
	}
}

// Lookup returns the id of the group whose composite key string (Key's
// bytes) is key. The first Lookup builds the key map in O(groups); every
// later one is a single map probe, and Extend keeps the map current. Safe
// for concurrent use with other reads of the index.
func (g *GroupIndex) Lookup(key string) (int, bool) {
	g.idsOnce.Do(g.buildIDs)
	gid, ok := g.ids[key]
	return gid, ok
}

// NumGroups returns the number of distinct composite keys.
func (g *GroupIndex) NumGroups() int { return len(g.keyStrs) }

// NumRows returns the number of rows in the indexed table.
func (g *GroupIndex) NumRows() int { return len(g.rowGID) }

// RowGroups exposes the per-row group-id slice. The slice is shared; callers
// must not mutate it.
func (g *GroupIndex) RowGroups() []int { return g.rowGID }

// Key returns the composite key string of a group.
func (g *GroupIndex) Key(gid int) string { return g.keyStrs[gid] }

// KeyColumns returns the key columns the index was built over. The slice is
// shared; callers must not mutate it.
func (g *GroupIndex) KeyColumns() []*Column { return g.keys }
