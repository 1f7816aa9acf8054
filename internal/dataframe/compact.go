package dataframe

// Compact string storage: dictionary codes as the PRIMARY representation. A
// raw encoded string column carries BOTH the []string backing (~16 bytes of
// header plus payload per row) and the uint16 code array; Compact drops the
// strings and keeps only codes + domain + validity, with per-row reads
// decoding values[code] lazily — ~3 bytes/row (2 of code, 1 of validity)
// instead of ~20+ raw. The serving daemon compacts every table it binds;
// Fit keeps raw columns, whose dictionaries build lazily on first scan.
//
// Every append within MaxDictCardinality extends the encoding in place (new
// values take the next codes), so a compact column stays compact. Only a
// delta pushing the cardinality past the cap REMATERIALISES the strings from
// the codes, clears the compact flag and drops the encoding, exactly as the
// raw column does. So a compact table behaves bit-identically to a raw one
// under every append pattern — it just holds less memory below the cap.

// materializedStrs returns the column's rows as a []string: the live backing
// for a raw column, a freshly decoded copy for a compact one (NULL rows get
// "", matching the raw placeholder). It reads len(c.valid) rows, so an
// encoding that a failed extend left holding more codes still decodes.
func (c *Column) materializedStrs() []string {
	if !c.compact {
		return c.strs
	}
	enc := c.dict.enc
	out := make([]string, len(c.valid))
	for i, ok := range c.valid {
		if ok {
			out[i] = enc.values[enc.codes[i]]
		}
	}
	return out
}

// rematerialize rebuilds the []string backing of a compact column and clears
// the compact flag. Called on a cap crossing BEFORE the encoding is dropped,
// so the column never becomes unreadable.
func (c *Column) rematerialize() {
	if !c.compact {
		return
	}
	c.strs = c.materializedStrs()
	c.compact = false
}

// newBuiltDict wraps an existing encoding in a holder whose once has already
// fired, so Dict() returns enc without ever running the lazy build (which
// would read the nil strs of a compact column).
func newBuiltDict(enc *DictEncoding) *dictLazy {
	d := &dictLazy{}
	d.once.Do(func() {
		d.built = true
		d.enc = enc
	})
	return d
}

// builtEnc returns the column's encoding iff one has ALREADY been built,
// without triggering the lazy build — for MemBytes, which must not cause
// encode side effects. Requires the column mutation contract (exclusive
// access), like the Append* family.
func (c *Column) builtEnc() *DictEncoding {
	if c.kind != KindString || c.dict == nil || !c.dict.built {
		return nil
	}
	return c.dict.enc
}

// IsCompact reports whether the column stores codes as its primary
// representation (no []string backing).
func (c *Column) IsCompact() bool { return c.compact }

// Compact switches a string column to code-backed storage, dropping the
// []string backing. It returns false (leaving the column untouched) for
// non-string columns and for columns whose cardinality exceeds
// MaxDictCardinality (no encoding exists to back the rows). Idempotent.
func (c *Column) Compact() bool {
	if c.kind != KindString {
		return false
	}
	if c.compact {
		return true
	}
	if c.Dict() == nil {
		return false
	}
	c.strs = nil
	c.strBytes, c.strCounted = 0, 0 // so rematerialize starts counting afresh
	c.compact = true
	return true
}

// ColumnMemory is one row of Table.MemBytes's per-column breakdown.
type ColumnMemory struct {
	Name    string
	Kind    Kind
	Bytes   int64
	Compact bool
}

// MemBytes estimates the column's resident heap bytes: value storage plus
// validity plus, for string columns, the dictionary encoding (codes, validity
// bitmap, domain and its sorted order) when built. String headers count 16 bytes
// each (8-byte pointer + 8-byte length on 64-bit) plus payload.
func (c *Column) MemBytes() int64 {
	n := int64(len(c.valid))
	b := n // valid []bool
	switch c.kind {
	case KindInt, KindTime:
		b += 8 * int64(len(c.ints))
	case KindFloat:
		b += 8 * int64(len(c.floats))
	case KindBool:
		b += int64(len(c.bools))
	case KindString:
		b += c.strBytes
		for _, s := range c.strs[c.strCounted:] {
			b += strCellBytes(s)
		}
		if enc := c.builtEnc(); enc != nil {
			b += 2 * int64(len(enc.codes))
			b += 8 * int64(len(enc.validBits))
			b += 2 * int64(len(enc.sorted))
			for _, s := range enc.values {
				b += strCellBytes(s)
			}
		}
	}
	return b
}

// strCellBytes is one raw string cell's estimated footprint: a 16-byte header
// plus its payload.
func strCellBytes(s string) int64 { return 16 + int64(len(s)) }

// countStrs extends the running strBytes count over the cells appended since
// the last count. Appenders call it under the column mutation contract, so
// MemBytes stays a pure read.
func (c *Column) countStrs() {
	for _, s := range c.strs[c.strCounted:] {
		c.strBytes += strCellBytes(s)
	}
	c.strCounted = len(c.strs)
}

// Compact switches every eligible string column of the table to code-backed
// storage (see Column.Compact) and reports how many columns are now compact.
func (t *Table) Compact() int {
	n := 0
	for _, c := range t.cols {
		if c.Compact() {
			n++
		}
	}
	return n
}

// MemBytes returns the table's estimated resident bytes and a per-column
// breakdown, the observability hook behind cmd/feataug -v's bytes/row line
// and feataugd's table_bytes stat.
func (t *Table) MemBytes() (total int64, cols []ColumnMemory) {
	cols = make([]ColumnMemory, 0, len(t.cols))
	for _, c := range t.cols {
		b := c.MemBytes()
		total += b
		cols = append(cols, ColumnMemory{Name: c.name, Kind: c.kind, Bytes: b, Compact: c.compact})
	}
	return total, cols
}
