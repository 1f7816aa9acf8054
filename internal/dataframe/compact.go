package dataframe

import "slices"

// Compact string storage: dictionary codes as the PRIMARY representation. A
// raw encoded string column carries BOTH the []string backing (~16 bytes of
// header plus payload per row) and the uint16 code array; Compact drops the
// strings and keeps only codes + domain + validity, with per-row reads
// decoding domain[code] lazily — ~3 bytes/row (2 of code, 1 of validity)
// instead of ~20+ raw. The serving daemon compacts every table it binds;
// Fit keeps raw columns, whose dictionaries build lazily on first scan.
//
// Appends keep the raw column's semantics verbatim: an append that would
// invalidate the encoding (mid-domain value shifting codes, or a delta
// pushing past MaxDictCardinality) REMATERIALISES the strings from the codes
// first and clears the compact flag, then follows the raw column's fallback
// path (fresh lazy holder, or nil encoding). So a compact table behaves
// bit-identically to a raw one under every append pattern the delta suite
// sweeps — it just holds less memory while the encoding stays valid.

// materializedStrs returns the column's rows as a []string: the live backing
// for a raw column, a freshly decoded copy for a compact one (NULL rows get
// "", matching the raw placeholder).
func (c *Column) materializedStrs() []string {
	if !c.compact {
		return c.strs
	}
	enc := c.dict.enc
	out := make([]string, len(enc.codes))
	for i, code := range enc.codes {
		if c.valid[i] {
			out[i] = enc.values[code]
		}
	}
	return out
}

// rematerialize rebuilds the []string backing of a compact column and clears
// the compact flag. Called by the dictionary-extension fallbacks BEFORE they
// discard the encoding, so the column never becomes unreadable.
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
// without triggering the lazy build — for callers (Concat's splice gate) that
// must not cause encode side effects. Requires the column mutation contract
// (exclusive access), like the Append* family.
func (c *Column) builtEnc() *DictEncoding {
	if c.kind != KindString || c.dict == nil || !c.dict.built {
		return nil
	}
	return c.dict.enc
}

// clone deep-copies an encoding's per-row arrays; the immutable sorted domain
// is shared with a full-slice expression so in-place domain extension on
// either copy reallocates instead of clobbering the other.
func (d *DictEncoding) clone() *DictEncoding {
	nv := len(d.values)
	out := &DictEncoding{
		values:    d.values[:nv:nv],
		codes:     append([]uint16(nil), d.codes...),
		validBits: append([]uint64(nil), d.validBits...),
		nulls:     d.nulls,
	}
	return out
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

// spliceStringColumns is Concat's domain-equality fast path: when every input
// column already carries a BUILT dictionary over the same sorted domain, the
// per-row code arrays concatenate verbatim — no re-encode, no per-row domain
// probes. Returns nil when the fast path does not apply (an input unencoded,
// unbuilt, or over a different domain); the caller falls back to the generic
// append loop. The gate reads builtEnc, never Dict, so Concat causes no
// encode side effects. The output is compact iff every input is compact;
// otherwise the strings are spliced too and the built encoding rides along.
func spliceStringColumns(srcs []*Column) *Column {
	encs := make([]*DictEncoding, len(srcs))
	total := 0
	allCompact := true
	for i, src := range srcs {
		enc := src.builtEnc()
		if enc == nil {
			return nil
		}
		if i > 0 && !slices.Equal(enc.values, encs[0].values) {
			return nil
		}
		encs[i] = enc
		total += src.Len()
		allCompact = allCompact && src.compact
	}
	nv := len(encs[0].values)
	out := &DictEncoding{
		values:    encs[0].values[:nv:nv],
		codes:     make([]uint16, 0, total),
		validBits: make([]uint64, (total+63)/64),
	}
	valid := make([]bool, 0, total)
	row := 0
	for si, enc := range encs {
		out.codes = append(out.codes, enc.codes...)
		for _, v := range srcs[si].valid {
			if v {
				out.validBits[row>>6] |= 1 << uint(row&63)
			} else {
				out.nulls++
			}
			row++
		}
		valid = append(valid, srcs[si].valid...)
	}
	col := &Column{name: srcs[0].name, kind: KindString, valid: valid, dict: newBuiltDict(out), compact: true}
	if !allCompact {
		col.compact = false
		col.strs = make([]string, 0, total)
		for _, src := range srcs {
			col.strs = append(col.strs, src.materializedStrs()...)
		}
	}
	return col
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
// bitmap, domain) when built. String headers count 16 bytes
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
