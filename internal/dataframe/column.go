// Package dataframe implements a small columnar table engine: typed columns
// with null bitmaps, filtering, sorting, group-by aggregation and left joins.
// It is the relational substrate FeatAug executes predicate-aware queries on,
// playing the role pandas plays in the original paper.
package dataframe

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the physical type of a Column.
type Kind int

// Supported column kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindTime
	KindBool
)

// String returns the lower-case kind name ("int", "float", ...).
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsNumeric reports whether the kind holds ordered numeric data.
// Time counts as numeric because range predicates apply to it.
func (k Kind) IsNumeric() bool {
	return k == KindInt || k == KindFloat || k == KindTime
}

// Column is a typed vector of values with a validity (non-null) bitmap.
// The zero value is an empty int column named "".
type Column struct {
	name   string
	kind   Kind
	ints   []int64   // KindInt and KindTime (unix seconds)
	floats []float64 // KindFloat
	strs   []string  // KindString; nil in compact mode
	bools  []bool    // KindBool
	valid  []bool    // valid[i] == false means NULL
	// dict lazily caches the dictionary encoding of a string column (see
	// dict.go). A plain pointer, not a lock, so by-value copies (Rename)
	// stay vet-clean and share the encoding.
	dict *dictLazy
	// compact marks a string column whose dictionary codes are the PRIMARY
	// storage: strs is nil and every per-row read decodes domain[code] lazily
	// (see strAt). Invariant while compact: dict.built && dict.enc != nil.
	// Appends that would invalidate the encoding (mid-domain value, cap
	// crossing) rematerialise strs first and drop the flag, preserving the
	// PR 9 fallback semantics exactly.
	compact bool
	// strBytes is MemBytes's raw-string term (see strCellBytes) over
	// strs[:strCounted]. Appends extend it over the rows they add, so
	// MemBytes walks only cells no append has counted and stays O(columns)
	// on a growing table. A freshly built column starts at zero, and so
	// does a compact one (Compact resets both), which is where
	// rematerialising starts from.
	strBytes   int64
	strCounted int
}

// NewIntColumn builds an int column. A nil valid slice means all values are
// present.
func NewIntColumn(name string, values []int64, valid []bool) *Column {
	return &Column{name: name, kind: KindInt, ints: values, valid: normValid(valid, len(values))}
}

// NewFloatColumn builds a float column. NaN values are marked null.
func NewFloatColumn(name string, values []float64, valid []bool) *Column {
	v := normValid(valid, len(values))
	for i, x := range values {
		if math.IsNaN(x) {
			v[i] = false
		}
	}
	return &Column{name: name, kind: KindFloat, floats: values, valid: v}
}

// NewStringColumn builds a string column.
func NewStringColumn(name string, values []string, valid []bool) *Column {
	return &Column{name: name, kind: KindString, strs: values, valid: normValid(valid, len(values)), dict: &dictLazy{}}
}

// NewTimeColumn builds a time column from unix-seconds timestamps.
func NewTimeColumn(name string, unixSecs []int64, valid []bool) *Column {
	return &Column{name: name, kind: KindTime, ints: unixSecs, valid: normValid(valid, len(unixSecs))}
}

// NewBoolColumn builds a bool column.
func NewBoolColumn(name string, values []bool, valid []bool) *Column {
	return &Column{name: name, kind: KindBool, bools: values, valid: normValid(valid, len(values))}
}

func normValid(valid []bool, n int) []bool {
	if valid == nil {
		valid = make([]bool, n)
		for i := range valid {
			valid[i] = true
		}
		return valid
	}
	if len(valid) != n {
		panic(fmt.Sprintf("dataframe: valid length %d != values length %d", len(valid), n))
	}
	out := make([]bool, n)
	copy(out, valid)
	return out
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the physical type of the column.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.valid) }

// Rename returns a copy of the column metadata under a new name, sharing the
// underlying data.
func (c *Column) Rename(name string) *Column {
	cp := *c
	cp.name = name
	return &cp
}

// IsNull reports whether the value at row i is NULL.
func (c *Column) IsNull(i int) bool { return !c.valid[i] }

// NullCount returns the number of NULL entries.
func (c *Column) NullCount() int {
	n := 0
	for _, v := range c.valid {
		if !v {
			n++
		}
	}
	return n
}

// Int returns the int64 value at row i. Valid for KindInt and KindTime.
func (c *Column) Int(i int) int64 {
	if c.kind != KindInt && c.kind != KindTime {
		panic("dataframe: Int on " + c.kind.String() + " column " + c.name)
	}
	return c.ints[i]
}

// Float returns the float64 value at row i. Valid for KindFloat.
func (c *Column) Float(i int) float64 {
	if c.kind != KindFloat {
		panic("dataframe: Float on " + c.kind.String() + " column " + c.name)
	}
	return c.floats[i]
}

// Str returns the string value at row i. Valid for KindString. On a compact
// column the value is decoded from the dictionary domain ("" at NULL rows,
// matching the raw representation's placeholder).
func (c *Column) Str(i int) string {
	if c.kind != KindString {
		panic("dataframe: Str on " + c.kind.String() + " column " + c.name)
	}
	return c.strAt(i)
}

// strAt is the kind-unchecked per-row string read: raw columns index strs,
// compact columns decode domain[code].
func (c *Column) strAt(i int) string {
	if !c.compact {
		return c.strs[i]
	}
	if !c.valid[i] {
		return ""
	}
	enc := c.dict.enc
	return enc.values[enc.codes[i]]
}

// Bool returns the bool value at row i. Valid for KindBool.
func (c *Column) Bool(i int) bool {
	if c.kind != KindBool {
		panic("dataframe: Bool on " + c.kind.String() + " column " + c.name)
	}
	return c.bools[i]
}

// Time returns the time value at row i. Valid for KindTime.
func (c *Column) Time(i int) time.Time {
	if c.kind != KindTime {
		panic("dataframe: Time on " + c.kind.String() + " column " + c.name)
	}
	return time.Unix(c.ints[i], 0).UTC()
}

// AsFloat returns the value at row i coerced to float64, and whether it is
// non-null. Strings and bools convert as: bool → 0/1, string → NaN/false.
func (c *Column) AsFloat(i int) (float64, bool) {
	if !c.valid[i] {
		return 0, false
	}
	switch c.kind {
	case KindInt, KindTime:
		return float64(c.ints[i]), true
	case KindFloat:
		return c.floats[i], true
	case KindBool:
		if c.bools[i] {
			return 1, true
		}
		return 0, true
	default:
		return math.NaN(), false
	}
}

// Value returns the value at row i as an interface, or nil when NULL.
func (c *Column) Value(i int) interface{} {
	if !c.valid[i] {
		return nil
	}
	switch c.kind {
	case KindInt:
		return c.ints[i]
	case KindFloat:
		return c.floats[i]
	case KindString:
		return c.strAt(i)
	case KindTime:
		return time.Unix(c.ints[i], 0).UTC()
	case KindBool:
		return c.bools[i]
	}
	return nil
}

// KeyString returns a canonical string for group-by / join hashing, with a
// sentinel for NULL.
func (c *Column) KeyString(i int) string {
	return string(c.AppendKey(nil, i))
}

// AppendKey appends the canonical key form of row i to b — KeyString without
// the per-call allocation, for hot grouping and join loops.
func (c *Column) AppendKey(b []byte, i int) []byte {
	if !c.valid[i] {
		return append(b, "\x00NULL"...)
	}
	switch c.kind {
	case KindInt, KindTime:
		b = append(b, 'i')
		return strconv.AppendInt(b, c.ints[i], 10)
	case KindFloat:
		b = append(b, 'f')
		return strconv.AppendFloat(b, c.floats[i], 'g', -1, 64)
	case KindString:
		b = append(b, 's')
		return append(b, c.strAt(i)...)
	case KindBool:
		if c.bools[i] {
			return append(b, "b1"...)
		}
		return append(b, "b0"...)
	}
	return b
}

// Bulk accessors expose the column's backing slices without copying, for hot
// loops (the fused query executor's shared scans) that would otherwise pay a
// kind switch and bounds checks per row through AsFloat/IsNull. The returned
// slices are the live backing store: callers must treat them as read-only and
// must check Kind first — a slice that does not back the column's kind is nil.

// IntData returns the backing int64 slice of a KindInt or KindTime column.
func (c *Column) IntData() []int64 { return c.ints }

// FloatData returns the backing float64 slice of a KindFloat column.
func (c *Column) FloatData() []float64 { return c.floats }

// StrData returns the backing string slice of a KindString column, or nil on
// a compact column (no []string backing exists; read through Str/Dict codes).
func (c *Column) StrData() []string { return c.strs }

// BoolData returns the backing bool slice of a KindBool column.
func (c *Column) BoolData() []bool { return c.bools }

// ValidData returns the backing validity slice: valid[i] == false means NULL.
// Present for every kind.
func (c *Column) ValidData() []bool { return c.valid }

// Take returns a new column containing the rows listed in idx, in order.
func (c *Column) Take(idx []int) *Column {
	out := &Column{name: c.name, kind: c.kind, valid: make([]bool, len(idx))}
	switch c.kind {
	case KindInt, KindTime:
		out.ints = make([]int64, len(idx))
		for j, i := range idx {
			out.ints[j] = c.ints[i]
			out.valid[j] = c.valid[i]
		}
	case KindFloat:
		out.floats = make([]float64, len(idx))
		for j, i := range idx {
			out.floats[j] = c.floats[i]
			out.valid[j] = c.valid[i]
		}
	case KindString:
		if c.compact {
			// Stay compact: take the codes, rebuild validity, share the
			// domain (full-slice expression so a later in-place domain
			// extension on either column reallocates instead of clobbering
			// the sibling). The inherited domain may list values absent from
			// the taken rows; presence-scanning consumers handle that.
			src := c.dict.enc
			nv := len(src.values)
			enc := &DictEncoding{
				values:    src.values[:nv:nv],
				codes:     make([]uint32, len(idx)),
				validBits: make([]uint64, (len(idx)+63)/64),
			}
			for j, i := range idx {
				if c.valid[i] {
					out.valid[j] = true
					enc.codes[j] = src.codes[i]
					enc.validBits[j>>6] |= 1 << uint(j&63)
				} else {
					enc.nulls++
				}
			}
			enc.rebuildMirrors()
			out.dict = newBuiltDict(enc)
			out.compact = true
			break
		}
		out.strs = make([]string, len(idx))
		for j, i := range idx {
			out.strs[j] = c.strs[i]
			out.valid[j] = c.valid[i]
		}
		out.dict = &dictLazy{}
	case KindBool:
		out.bools = make([]bool, len(idx))
		for j, i := range idx {
			out.bools[j] = c.bools[i]
			out.valid[j] = c.valid[i]
		}
	}
	return out
}

// Floats materialises the column as a float64 slice plus a validity slice,
// coercing ints, times and bools. String columns yield ordinal codes over the
// sorted distinct domain so that downstream numeric consumers (ML models,
// MI estimators) can handle them.
func (c *Column) Floats() ([]float64, []bool) {
	out := make([]float64, c.Len())
	valid := make([]bool, c.Len())
	if c.kind == KindString {
		codes := c.ordinalCodes()
		for i := range out {
			out[i] = float64(codes[i])
			valid[i] = c.valid[i]
		}
		return out, valid
	}
	for i := range out {
		out[i], valid[i] = c.AsFloat(i)
	}
	return out, valid
}

// ordinalCodes maps each string value to its rank in the sorted distinct
// domain. NULLs get code -1.
func (c *Column) ordinalCodes() []int {
	if c.compact {
		// The dictionary domain is already sorted; rank only the values
		// present among the column's rows (an inherited domain may list
		// absent values) so the result matches the raw-column scan exactly.
		enc := c.dict.enc
		rank := presenceRanks(enc, c.valid)
		codes := make([]int, len(enc.codes))
		for i := range codes {
			if !c.valid[i] {
				codes[i] = -1
				continue
			}
			codes[i] = rank[enc.codes[i]]
		}
		return codes
	}
	domain := map[string]int{}
	var keys []string
	for i, s := range c.strs {
		if !c.valid[i] {
			continue
		}
		if _, ok := domain[s]; !ok {
			domain[s] = 0
			keys = append(keys, s)
		}
	}
	sortStrings(keys)
	for rank, k := range keys {
		domain[k] = rank
	}
	codes := make([]int, len(c.strs))
	for i, s := range c.strs {
		if !c.valid[i] {
			codes[i] = -1
			continue
		}
		codes[i] = domain[s]
	}
	return codes
}

// presenceRanks scans a column's codes once and assigns each PRESENT domain
// code its rank among the present codes (domain order == sorted order), -1
// for absent codes.
func presenceRanks(enc *DictEncoding, valid []bool) []int {
	rank := make([]int, len(enc.values))
	for i := range rank {
		rank[i] = -1
	}
	for i, code := range enc.codes {
		if valid[i] {
			rank[code] = 0
		}
	}
	r := 0
	for i, v := range rank {
		if v == 0 {
			rank[i] = r
			r++
		}
	}
	return rank
}

func sortStrings(s []string) {
	// Insertion sort is fine for domains; avoid importing sort here to keep
	// this file dependency-free, and domains are small in practice.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AppendNull extends the column with one NULL row.
func (c *Column) AppendNull() {
	if c.kind == KindString {
		c.extendDictNull()
	}
	c.valid = append(c.valid, false)
	switch c.kind {
	case KindInt, KindTime:
		c.ints = append(c.ints, 0)
	case KindFloat:
		c.floats = append(c.floats, 0)
	case KindString:
		if !c.compact { // compact: the NULL lives in the code/validity arrays
			c.strs = append(c.strs, "")
			c.countStrs()
		}
	case KindBool:
		c.bools = append(c.bools, false)
	}
}

// AppendInt extends an int or time column with a value.
func (c *Column) AppendInt(v int64) {
	if c.kind != KindInt && c.kind != KindTime {
		panic("dataframe: AppendInt on " + c.kind.String())
	}
	c.ints = append(c.ints, v)
	c.valid = append(c.valid, true)
}

// AppendFloat extends a float column with a value.
func (c *Column) AppendFloat(v float64) {
	if c.kind != KindFloat {
		panic("dataframe: AppendFloat on " + c.kind.String())
	}
	c.floats = append(c.floats, v)
	c.valid = append(c.valid, !math.IsNaN(v))
}

// AppendStr extends a string column with a value.
func (c *Column) AppendStr(v string) {
	if c.kind != KindString {
		panic("dataframe: AppendStr on " + c.kind.String())
	}
	c.extendDictStr(v) // may rematerialise a compact column (fallback cases)
	if !c.compact {
		c.strs = append(c.strs, v)
		c.countStrs()
	}
	c.valid = append(c.valid, true)
}

// AppendBool extends a bool column with a value.
func (c *Column) AppendBool(v bool) {
	if c.kind != KindBool {
		panic("dataframe: AppendBool on " + c.kind.String())
	}
	c.bools = append(c.bools, v)
	c.valid = append(c.valid, true)
}

// appendFrom bulk-appends every row of o (same kind, checked by the caller)
// — the column half of Table.AppendRows. Existing rows keep their positions
// and values; string columns extend a built dictionary in place when the
// delta keeps existing codes stable (see extendDictBulk).
func (c *Column) appendFrom(o *Column) {
	switch c.kind {
	case KindInt, KindTime:
		c.ints = append(c.ints, o.ints...)
	case KindFloat:
		c.floats = append(c.floats, o.floats...)
	case KindString:
		vals := o.materializedStrs() // o may itself be compact
		c.extendDictBulk(vals, o.valid)
		if !c.compact { // extendDictBulk rematerialises on fallback
			c.strs = append(c.strs, vals...)
			c.countStrs()
		}
	case KindBool:
		c.bools = append(c.bools, o.bools...)
	}
	c.valid = append(c.valid, o.valid...)
}

// Clone deep-copies the column. A compact column clones compact: the code
// arrays are copied, the (immutable) domain is shared with append-safe
// capacity.
func (c *Column) Clone() *Column {
	out := &Column{name: c.name, kind: c.kind}
	if c.kind == KindString {
		if c.compact {
			out.dict = newBuiltDict(c.dict.enc.clone())
			out.compact = true
		} else {
			out.dict = &dictLazy{}
		}
	}
	out.valid = append([]bool(nil), c.valid...)
	out.ints = append([]int64(nil), c.ints...)
	out.floats = append([]float64(nil), c.floats...)
	out.strs = append([]string(nil), c.strs...)
	out.bools = append([]bool(nil), c.bools...)
	return out
}

// DistinctStrings returns the sorted distinct non-null values of a string
// column, capped at limit (0 = no cap). When a dictionary encoding exists the
// probe is served from it — a presence scan over the codes instead of a
// hashed scan over raw strings (the domain is already sorted; the scan drops
// inherited-domain values absent from the column's rows).
func (c *Column) DistinctStrings(limit int) []string {
	if c.kind != KindString {
		panic("dataframe: DistinctStrings on " + c.kind.String())
	}
	if enc := c.Dict(); enc != nil {
		present := make([]bool, len(enc.values))
		for i, code := range enc.codes {
			if c.valid[i] {
				present[code] = true
			}
		}
		var out []string
		for code, p := range present {
			if !p {
				continue
			}
			out = append(out, enc.values[code])
			if limit > 0 && len(out) == limit {
				break
			}
		}
		return out
	}
	seen := map[string]bool{}
	var out []string
	for i, s := range c.strs {
		if !c.valid[i] || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	sortStrings(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// MinMaxFloat returns the minimum and maximum non-null values of a numeric
// column, and false when the column has no non-null values.
func (c *Column) MinMaxFloat() (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < c.Len(); i++ {
		v, valid := c.AsFloat(i)
		if !valid {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		ok = true
	}
	return lo, hi, ok
}
