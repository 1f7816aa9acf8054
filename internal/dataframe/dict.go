package dataframe

// Dictionary encoding of string columns. A DictEncoding replaces per-row Go
// strings with one uint16 code array over the sorted distinct domain (the
// cardinality cap keeps every code in range, so there is no other width):
// equality predicates become integer compares. The encoding is cached on
// the column behind a sync.Once, so every consumer of the same column —
// executors, the tables that share it, served plans — shares one encode
// pass.
//
// Appends extend a built encoding IN PLACE whenever the delta keeps
// existing codes stable: appended values already in the domain reuse their
// code, and values sorting strictly after the current maximum join the end
// of the sorted domain with the next codes — in both cases the extended
// encoding is exactly what a from-scratch encode of the grown column would
// produce, and the *DictEncoding pointer is unchanged. A mid-domain value
// would shift every code at or after its rank, so it swaps in a fresh holder
// for a lazy full re-encode (new pointer); a delta pushing the cardinality
// past MaxDictCardinality sets the encoding to nil, matching the
// from-scratch result. Consumers read the codes of the rows they need from
// the current Dict() and key nothing by a code, so neither case needs their
// notice. Columns follow the engine-wide contract that they are not mutated
// while scans are in flight.

import (
	"slices"
	"sort"
	"sync"
)

// MaxDictCardinality bounds the distinct non-null values a dictionary holds;
// columns above the cap stay unencoded (Dict returns nil) and every consumer
// falls back to its generic string path. The cap keeps every code within
// the uint16 code array that the predicate kernels compare (checked below).
const MaxDictCardinality = 1024

// Every code fits the uint16 code array (compile-time check).
const _ = uint16(MaxDictCardinality - 1)

// DictEncoding is the immutable dictionary form of one string column: the
// sorted distinct non-null values, a per-row uint16 code (rank in the sorted
// domain; unspecified at NULL rows) and a validity bitmap (LSB-first within
// each word, matching the query layer's predicate bitmaps).
type DictEncoding struct {
	values    []string
	codes     []uint16
	validBits []uint64
	nulls     int
}

// Values returns the sorted distinct non-null values; code c decodes to
// Values()[c]. The slice is shared and read-only.
func (d *DictEncoding) Values() []string { return d.values }

// Codes returns the per-row codes. Values at NULL rows are unspecified;
// callers gate on ValidBits. The slice is shared and read-only.
func (d *DictEncoding) Codes() []uint16 { return d.codes }

// ValidBits returns the validity bitmap: bit i (LSB-first within word i/64)
// is set iff row i is non-NULL. The slice is shared and read-only.
func (d *DictEncoding) ValidBits() []uint64 { return d.validBits }

// Cardinality returns the number of distinct non-null values.
func (d *DictEncoding) Cardinality() int { return len(d.values) }

// NullCount returns the number of NULL rows the encoding observed.
func (d *DictEncoding) NullCount() int { return d.nulls }

// NumRows returns the number of rows the encoding covers.
func (d *DictEncoding) NumRows() int { return len(d.codes) }

// CodeOf returns the code of value s and whether s is in the dictionary.
func (d *DictEncoding) CodeOf(s string) (uint16, bool) {
	i := sort.SearchStrings(d.values, s)
	if i < len(d.values) && d.values[i] == s {
		return uint16(i), true
	}
	return 0, false
}

// dictLazy is the column's once-guarded dictionary holder. built is written
// inside the once and read only under the column mutation contract (exclusive
// access), where it tells Append* whether an encoding exists to extend.
type dictLazy struct {
	once  sync.Once
	built bool
	enc   *DictEncoding
}

// Dict returns the column's dictionary encoding, building it on first use
// ("lazily on first scan"). It returns nil for non-string columns, for
// columns above MaxDictCardinality, and for string columns assembled outside
// the package constructors (no holder — they simply stay unencoded). Safe for
// concurrent use; all callers share one build.
func (c *Column) Dict() *DictEncoding {
	if c.kind != KindString || c.dict == nil {
		return nil
	}
	d := c.dict
	d.once.Do(func() {
		d.built = true
		d.enc = c.buildDictEncoding(MaxDictCardinality)
	})
	return d.enc
}

// buildDictEncoding encodes the column in one pass: each distinct value gets
// a code in first-seen order, then the distinct values are sorted and the
// codes remapped to their ranks (NULL rows keep code 0). It returns nil once
// a value beyond maxCard distinct ones appears. An all-NULL (or empty)
// column yields a valid encoding with an empty dictionary.
func (c *Column) buildDictEncoding(maxCard int) *DictEncoding {
	n := len(c.strs)
	d := &DictEncoding{
		codes:     make([]uint16, n),
		validBits: make([]uint64, (n+63)/64),
	}
	seen := make(map[string]uint16)
	var firstSeen []string
	for i, s := range c.strs {
		if !c.valid[i] {
			d.nulls++
			continue
		}
		code, ok := seen[s]
		if !ok {
			if len(firstSeen) >= maxCard {
				return nil
			}
			code = uint16(len(firstSeen))
			seen[s] = code
			firstSeen = append(firstSeen, s)
		}
		d.codes[i] = code
		d.validBits[i>>6] |= 1 << uint(i&63)
	}

	d.values = make([]string, len(firstSeen))
	copy(d.values, firstSeen)
	slices.Sort(d.values)
	rank := make([]uint16, len(d.values))
	for r, s := range d.values {
		rank[seen[s]] = uint16(r)
	}
	for i, code := range d.codes {
		if c.valid[i] {
			d.codes[i] = rank[code]
		}
	}
	return d
}

// appendCode appends one row to the encoding: its code (pass 0 for NULL)
// and validity, growing the validity bitmap.
func (d *DictEncoding) appendCode(code uint16, valid bool) {
	i := len(d.codes)
	d.codes = append(d.codes, code)
	if i&63 == 0 {
		d.validBits = append(d.validBits, 0)
	}
	if valid {
		d.validBits[i>>6] |= 1 << uint(i&63)
	} else {
		d.nulls++
	}
}

// extendDictStr absorbs one appended value into a built encoding in place
// when existing codes stay stable (value in-domain, or sorting after the
// current maximum with room under the cap); otherwise it swaps in a fresh
// holder (mid-domain value) or nils the encoding (cap crossed). Called by
// AppendStr before the value lands in strs.
func (c *Column) extendDictStr(v string) {
	d := c.dict
	if d == nil {
		c.dict = &dictLazy{} // zero-value column grown by appends
		return
	}
	if !d.built || d.enc == nil {
		return // unbuilt: the lazy build covers the new row; nil: stays nil
	}
	enc := d.enc
	code, ok := enc.CodeOf(v)
	if !ok {
		if n := len(enc.values); n > 0 && v < enc.values[n-1] {
			c.rematerialize()    // compact columns need strs back before the encoding goes
			c.dict = &dictLazy{} // mid-domain value shifts codes: full re-encode
			return
		}
		if len(enc.values) >= MaxDictCardinality {
			c.rematerialize()
			d.enc = nil // from-scratch over the grown column is unencodable too
			return
		}
		code = uint16(len(enc.values))
		enc.values = append(enc.values, v)
	}
	enc.appendCode(code, true)
}

// extendDictNull is extendDictStr for an appended NULL, which never shifts
// codes.
func (c *Column) extendDictNull() {
	d := c.dict
	if d == nil {
		c.dict = &dictLazy{}
		return
	}
	if !d.built || d.enc == nil {
		return
	}
	d.enc.appendCode(0, false)
}

// extendDictBulk is the batch form of extendDictStr used by appendFrom: one
// pass classifies the delta (all values in-domain or strictly above the
// current maximum → extend in place; cap crossed → nil; mid-domain value →
// fresh holder), a second appends the per-row codes.
func (c *Column) extendDictBulk(vals []string, valid []bool) {
	d := c.dict
	if d == nil {
		c.dict = &dictLazy{}
		return
	}
	if !d.built || d.enc == nil {
		return
	}
	enc := d.enc
	var fresh []string
	for i, s := range vals {
		if !valid[i] {
			continue
		}
		if _, ok := enc.CodeOf(s); !ok {
			fresh = append(fresh, s)
		}
	}
	if len(fresh) > 0 {
		slices.Sort(fresh)
		fresh = slices.Compact(fresh)
		if len(enc.values)+len(fresh) > MaxDictCardinality {
			c.rematerialize()
			d.enc = nil
			return
		}
		if n := len(enc.values); n > 0 && fresh[0] < enc.values[n-1] {
			c.rematerialize()
			c.dict = &dictLazy{}
			return
		}
		enc.values = append(enc.values, fresh...)
	}
	for i, s := range vals {
		if !valid[i] {
			enc.appendCode(0, false)
			continue
		}
		code, _ := enc.CodeOf(s)
		enc.appendCode(code, true)
	}
}
