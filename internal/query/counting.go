package query

// The counting path for the fused per-group sort. Sorting dominates the fused
// profile whenever a plan group requests order-statistics aggregates (MEDIAN,
// MAD, MODE, ENTROPY, COUNT_DISTINCT): every group's value segment is
// comparison-sorted. Many aggregation attributes have tiny domains — category
// strings, small-int codes, bools — where a counting/bucket rewrite produces
// the identical ascending segment in O(len + distinct·log distinct) with no
// comparisons. A cardinality probe runs once per (executor, column) and is
// cached; eligible attributes are selected per attrScan. Eligibility is
// restricted to domains whose values round-trip exactly through float64
// (strings via a dictionary; int/time/bool with a small range and |value| ≤
// 2³¹), so rewritten segments are bit-identical to the sorted originals.
// String attributes scatter the dictionary's uint16 codes, not strings, and
// expand them in rank order; numeric ones count value-base offsets of the
// float view. The same probe also carries the int/time columns' exact-integer
// state (bounds, backing ints, validity bitmap) for the range kernel in
// dict.go.

import (
	"slices"
	"sync"

	"repro/internal/dataframe"
)

// maxCountingDomain bounds the code domain (distinct strings, or the numeric
// range width) the counting path accepts; larger domains fall back to the
// comparison sort. It equals the dictionary cardinality cap, so a string
// column is counting-eligible exactly when it carries a dictionary.
const maxCountingDomain = dataframe.MaxDictCardinality

// maxCountingAbs bounds |value| for numeric domains so float64(base+code)
// reconstructs the column's float view bit for bit.
const maxCountingAbs = int64(1) << 31

// maxExactIntAbs bounds |value| so float64(value) is exact, which makes the
// integer-compare range kernel (dict.go) equivalent to the float-view loops.
const maxExactIntAbs = int64(1) << 53

// domainEntry is the cached cardinality probe of one aggregation attribute.
// All fields are read-only after the once completes, except under the core's
// epoch fence, where advance absorbs appended rows (see delta.go).
type domainEntry struct {
	once  sync.Once
	ok    bool     // eligible for the counting path
	k     int      // code domain size: codes are 0..k-1
	base  int64    // numeric columns: code = int64(value) - base
	svals []string // string columns: distinct values ascending; code = rank
	codes []uint16 // string columns: per-row code (the dictionary's, shared)

	// Integer predicate-kernel state (int/time columns; see dict.go). intOK
	// marks every value within maxExactIntAbs, so integer compares against
	// exact bounds reproduce the float-view semantics bit for bit.
	intOK  bool
	seen   bool     // int/time: some non-null value observed (mn/mx defined)
	nrows  int      // rows the probe state covers (for delta advances)
	mn, mx int64    // observed non-null min/max (valid when seen)
	ivals  []int64  // backing ints (shared with the column)
	vbits  []uint64 // validity bitmap, LSB-first per word
}

// countingScan bumps the counting-path counter (one attrScan whose per-group
// sort ran through the counting rewrite).
func (e *Executor) countingScan() {
	e.mu.Lock()
	e.stats.CountingScans++
	e.mu.Unlock()
}

// domain returns the cached probe for col, running it on first use. Probes
// live in the core (they depend only on the column), so executors sharing a
// core run each probe — a full-table pass — once between them.
func (e *Executor) domain(col *dataframe.Column) *domainEntry {
	c := e.core
	c.mu.Lock()
	if c.domains == nil {
		c.domains = map[string]*domainEntry{}
	}
	ent, ok := c.domains[col.Name()]
	if !ok {
		ent = &domainEntry{}
		c.domains[col.Name()] = ent
	}
	c.mu.Unlock()
	if !ok {
		e.mu.Lock()
		e.stats.SharedScanPasses++
		e.mu.Unlock()
	}
	ent.once.Do(func() { ent.probe(col) })
	return ent
}

// probe scans the column once and decides counting-path eligibility.
func (ent *domainEntry) probe(col *dataframe.Column) {
	valid := col.ValidData()
	ent.nrows = col.Len()
	switch col.Kind() {
	case dataframe.KindBool:
		// The float view is exactly {0, 1}; no per-row codes needed.
		ent.ok, ent.base, ent.k = true, 0, 2
	case dataframe.KindInt, dataframe.KindTime:
		vals := col.IntData()
		var mn, mx int64
		seen := false
		for i, v := range vals {
			if !valid[i] {
				continue
			}
			if !seen {
				mn, mx, seen = v, v, true
				continue
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if !seen {
			return
		}
		ent.seen, ent.mn, ent.mx = true, mn, mx
		if mn >= -maxExactIntAbs && mx <= maxExactIntAbs {
			// The integer range kernel can serve this column: record the
			// bounds, backing ints and a validity bitmap (see dict.go).
			ent.intOK, ent.ivals = true, vals
			ent.vbits = make([]uint64, (len(vals)+63)/64)
			for i, ok := range valid {
				if ok {
					ent.vbits[i>>6] |= 1 << uint(i&63)
				}
			}
		}
		if mn < -maxCountingAbs || mx > maxCountingAbs {
			return
		}
		if width := mx - mn + 1; width <= maxCountingDomain {
			ent.ok, ent.base, ent.k = true, mn, int(width)
		}
	case dataframe.KindString:
		// The dictionary (dict.go) is the probe: its cardinality cap equals
		// maxCountingDomain, its values are already sorted and its codes are
		// the per-row ranks — shared, not re-derived.
		enc := col.Dict()
		if enc == nil || enc.Cardinality() == 0 {
			return
		}
		ent.ok, ent.k = true, enc.Cardinality()
		ent.svals, ent.codes = enc.Values(), enc.Codes()
	}
}

// reset returns the entry to its pre-probe zero state (the once is kept — it
// has already fired and stays fired).
func (ent *domainEntry) reset() {
	ent.ok, ent.k, ent.base = false, 0, 0
	ent.svals, ent.codes = nil, nil
	ent.intOK, ent.seen, ent.nrows = false, false, 0
	ent.mn, ent.mx = 0, 0
	ent.ivals, ent.vbits = nil, nil
}

// advance absorbs rows appended to col since the probe (or the last advance),
// re-deriving exactly the state a from-scratch probe of the grown column
// would produce. Eligibility can only be LOST by an append (a wider domain, a
// value past a cap), never gained back, except through the !seen path where
// the probe had observed no non-null value at all and simply re-runs. Must
// run under the core's epoch fence.
func (ent *domainEntry) advance(col *dataframe.Column) {
	n := col.Len()
	if ent.nrows >= n {
		return
	}
	valid := col.ValidData()
	switch col.Kind() {
	case dataframe.KindBool:
		// Eligibility is static; nothing per-row is cached.
	case dataframe.KindInt, dataframe.KindTime:
		if !ent.seen {
			// No non-null value had been observed: the delta decides the whole
			// probe, identically to probing the grown column from scratch.
			ent.reset()
			ent.probe(col)
			return
		}
		vals := col.IntData()
		mn, mx := ent.mn, ent.mx
		for i := ent.nrows; i < n; i++ {
			if !valid[i] {
				continue
			}
			if v := vals[i]; v < mn {
				mn = v
			} else if v > mx {
				mx = v
			}
		}
		ent.mn, ent.mx = mn, mx
		if ent.intOK {
			if mn < -maxExactIntAbs || mx > maxExactIntAbs {
				ent.intOK, ent.ivals, ent.vbits = false, nil, nil
			} else {
				ent.ivals = vals // appends may have reallocated the backing slice
				for len(ent.vbits) < (n+63)/64 {
					ent.vbits = append(ent.vbits, 0)
				}
				for i := ent.nrows; i < n; i++ {
					if valid[i] {
						ent.vbits[i>>6] |= 1 << uint(i&63)
					}
				}
			}
		}
		if ent.ok {
			// The base follows the minimum down, as a fresh probe's would.
			if width := mx - mn + 1; mn < -maxCountingAbs || mx > maxCountingAbs || width > maxCountingDomain {
				ent.ok, ent.k, ent.base = false, 0, 0
			} else {
				ent.base, ent.k = mn, int(width)
			}
		}
	case dataframe.KindString:
		// The dictionary IS the probe: re-point at the (possibly re-encoded or
		// dropped) current encoding, exactly as a fresh probe would read it.
		enc := col.Dict()
		if enc == nil || enc.Cardinality() == 0 {
			ent.ok, ent.k = false, 0
			ent.svals, ent.codes = nil, nil
		} else {
			ent.ok, ent.k = true, enc.Cardinality()
			ent.svals, ent.codes = enc.Values(), enc.Codes()
		}
	}
	ent.nrows = n
}

// countScratch returns the attrScan's zeroed count array (lazily sized to the
// domain) and its touched-code list.
func (as *attrScan) countScratch(k int) []int32 {
	if cap(as.cnt) < k {
		as.cnt = make([]int32, k)
	}
	return as.cnt[:k]
}

// countingSortFloats rewrites one group's float segment ascending through the
// small-int domain: count codes, then emit float64(base+code) runs in code
// order — bit-identical to slices.Sort(seg) because every value round-trips
// exactly. The count array is left zeroed for the next segment.
func (as *attrScan) countingSortFloats(seg []float64, base int64, k int) {
	cnt := as.countScratch(k)
	touched := as.touched[:0]
	for _, v := range seg {
		c := int32(int64(v) - base)
		if cnt[c] == 0 {
			touched = append(touched, c)
		}
		cnt[c]++
	}
	slices.Sort(touched)
	w := 0
	for _, c := range touched {
		v := float64(base + int64(c))
		for n := cnt[c]; n > 0; n-- {
			seg[w] = v
			w++
		}
		cnt[c] = 0
	}
	as.touched = touched
}

// countingFillStrings writes one group's string segment ascending from its
// scattered codes: count the segment's codes, then emit each distinct value's
// run in rank order — the exact output slices.Sort would produce over the
// scattered strings, with int32 moves instead of string compares.
func (as *attrScan) countingFillStrings(dst []string, codeSeg []uint16, svals []string, k int) {
	cnt := as.countScratch(k)
	touched := as.touched[:0]
	for _, c := range codeSeg {
		if cnt[c] == 0 {
			touched = append(touched, int32(c))
		}
		cnt[c]++
	}
	slices.Sort(touched)
	w := 0
	for _, c := range touched {
		s := svals[c]
		for n := cnt[c]; n > 0; n-- {
			dst[w] = s
			w++
		}
		cnt[c] = 0
	}
	as.touched = touched
}
