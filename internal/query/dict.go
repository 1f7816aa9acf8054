package query

// Dictionary-backed scan kernels (PR 8). String equality predicates resolve
// the operand to its dictionary code once and then compare narrow integer
// codes; int/time range predicates compare raw int64s (or, when the cached
// domain probe admits a small width, uint8/uint16 codes) against exact
// integer bounds. The kernels build each 64-row bitmap word branch-free —
// per-row compares compile to flag-set instructions, the word is AND-ed with
// the column's validity bitmap — so the predicate hot loop carries no
// per-row branch misprediction and no string compares at all.
//
// Encodings are owned at the tableCore layer: dictFor hands out one
// dictEntry per (core, column), and the entry's build defers to
// Column.Dict(), which caches on the column itself — so executors over
// different cores of the same physical table (shard subscribers, served
// plans) still share one encode pass. Columns above MaxDictCardinality get no
// encoding and take the unencoded fallbacks; the differential tests compare
// both shapes against Query.Execute.

import (
	"math"
	"sync"

	"repro/internal/dataframe"
)

// dictEntry is the per-core record of one column's dictionary encoding.
type dictEntry struct {
	once sync.Once
	enc  *dataframe.DictEncoding
}

// dictFor returns the column's dictionary encoding through the core cache,
// or nil when the column is unencodable (non-string or above the cardinality
// cap). DictEncodes counts first-use builds charged to this executor's core;
// DictHits counts lookups served by an existing entry.
func (e *Executor) dictFor(col *dataframe.Column) *dataframe.DictEncoding {
	c := e.core
	c.mu.Lock()
	if c.dicts == nil {
		c.dicts = map[string]*dictEntry{}
	}
	ent, hit := c.dicts[col.Name()]
	if !hit {
		ent = &dictEntry{}
		c.dicts[col.Name()] = ent
	}
	c.mu.Unlock()
	e.mu.Lock()
	if hit {
		e.stats.DictHits++
	} else {
		e.stats.DictEncodes++
	}
	e.mu.Unlock()
	ent.once.Do(func() { ent.enc = col.Dict() })
	return ent.enc
}

// noteCodePred records one predicate bitmap built through the code kernels.
func (e *Executor) noteCodePred() {
	e.mu.Lock()
	e.stats.CodePredScans++
	e.mu.Unlock()
}

// noteSwarPred records one predicate bitmap built word-parallel (a subset of
// the CodePredScans count).
func (e *Executor) noteSwarPred() {
	e.mu.Lock()
	e.stats.SwarPredScans++
	e.mu.Unlock()
}

// codeWidth is the set of code representations the kernels specialise over.
type codeWidth interface {
	~uint8 | ~uint16 | ~uint32
}

// eqCodeBits fills bm one 64-row word at a time with the rows whose code
// equals target, masked to valid rows.
func eqCodeBits[T codeWidth](codes []T, vbits []uint64, target T, bm []uint64) {
	n := len(codes)
	for wi := range bm {
		lo := wi << 6
		hi := lo + 64
		if hi > n {
			hi = n
		}
		var w uint64
		for i := lo; i < hi; i++ {
			var b uint64
			if codes[i] == target {
				b = 1
			}
			w |= b << uint(i-lo)
		}
		bm[wi] = w & vbits[wi]
	}
}

// rangeCodeBits is eqCodeBits for the code interval [lo, hi] (lo <= hi): the
// two-sided test folds into one unsigned compare of codes[i]-lo.
func rangeCodeBits[T codeWidth](codes []T, vbits []uint64, lo, hi T, bm []uint64) {
	n := len(codes)
	span := hi - lo
	for wi := range bm {
		wlo := wi << 6
		whi := wlo + 64
		if whi > n {
			whi = n
		}
		var w uint64
		for i := wlo; i < whi; i++ {
			var b uint64
			if codes[i]-lo <= span {
				b = 1
			}
			w |= b << uint(i-wlo)
		}
		bm[wi] = w & vbits[wi]
	}
}

// rangeInt64Bits is the full-width range kernel: lo <= vals[i] <= hi over the
// raw int64 column, masked to valid rows.
func rangeInt64Bits(vals []int64, vbits []uint64, lo, hi int64, bm []uint64) {
	n := len(vals)
	for wi := range bm {
		wlo := wi << 6
		whi := wlo + 64
		if whi > n {
			whi = n
		}
		var w uint64
		for i := wlo; i < whi; i++ {
			v := vals[i]
			var b uint64
			if v >= lo && v <= hi {
				b = 1
			}
			w |= b << uint(i-wlo)
		}
		bm[wi] = w & vbits[wi]
	}
}

// dictEqBitsFrom fills the equality bitmap for rows [lo, n) through the
// narrowest code mirror the encoding carries: the word-parallel SWAR kernels
// for uint8/uint16 mirrors, the scalar loop for wide uint32 codes. It reports
// whether a SWAR kernel ran. The kernels run over the word-aligned subslices
// starting at lo (a multiple of 64, or 0), so a delta advance pays only for
// the appended words.
func dictEqBitsFrom(enc *dataframe.DictEncoding, code uint32, bm []uint64, lo int) bool {
	w0 := lo >> 6
	vbits := enc.ValidBits()[w0:]
	sub := bm[w0:]
	if c8 := enc.Codes8(); c8 != nil {
		swarEqBits8(c8[lo:], vbits, uint8(code), sub)
		return true
	}
	if c16 := enc.Codes16(); c16 != nil {
		swarEqBits16(c16[lo:], vbits, uint16(code), sub)
		return true
	}
	eqCodeBits(enc.Codes()[lo:], vbits, code, sub)
	return false
}

// twoPow63 is 2^63 as a float64 (exact). float64(math.MaxInt64) rounds UP to
// this value, so a float bound >= twoPow63 exceeds every int64 and a bound
// of exactly -twoPow63 equals math.MinInt64.
const twoPow63 = float64(1<<62) * 2

// intRangeBounds converts a float range predicate into the equivalent
// inclusive int64 interval: float64(v) >= Lo iff v >= ceil(Lo), float64(v)
// <= Hi iff v <= floor(Hi) — exact whenever |v| <= 2^53, which the intOK
// probe gate guarantees. empty means no integer can satisfy the predicate
// (NaN bounds included, matching the float kernels where every compare
// against NaN fails).
func intRangeBounds(p Predicate) (lo, hi int64, empty bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	if p.HasLo {
		c := math.Ceil(p.Lo)
		switch {
		case math.IsNaN(c) || c >= twoPow63:
			return 0, 0, true
		case c >= -twoPow63:
			lo = int64(c)
		}
	}
	if p.HasHi {
		f := math.Floor(p.Hi)
		switch {
		case math.IsNaN(f) || f < -twoPow63:
			return 0, 0, true
		case f < twoPow63:
			hi = int64(f)
		}
	}
	return lo, hi, lo > hi
}

// intRangeBitsFrom serves a range predicate over an int/time column for rows
// [row0, n), row0 word-aligned (0, or the delta-advance start), from the
// domain probe's integer state: exact integer bounds, then the narrowest
// kernel the probe admits — SWAR over uint8/uint16 codes when the column's
// width fits the counting domain, raw int64 compares otherwise. It reports
// whether a word-parallel SWAR kernel ran. The domain clamp uses the CURRENT
// observed bounds; a grown domain only widens the clamp, and the underlying
// integer interval is unchanged, so recomputed boundary-word rows keep their
// bits.
func intRangeBitsFrom(dom *domainEntry, p Predicate, bm []uint64, row0 int) bool {
	lo, hi, empty := intRangeBounds(p)
	if empty {
		return false
	}
	// Clamp to the observed domain so code arithmetic cannot underflow; an
	// interval that misses the domain entirely selects nothing.
	if lo < dom.mn {
		lo = dom.mn
	}
	if hi > dom.mx {
		hi = dom.mx
	}
	if lo > hi {
		return false
	}
	w0 := row0 >> 6
	vbits := dom.vbits[w0:]
	sub := bm[w0:]
	switch {
	case dom.ncodes8 != nil:
		swarRangeBits8(dom.ncodes8[row0:], vbits, uint8(lo-dom.base), uint8(hi-dom.base), sub)
		return true
	case dom.ncodes16 != nil:
		swarRangeBits16(dom.ncodes16[row0:], vbits, uint16(lo-dom.base), uint16(hi-dom.base), sub)
		return true
	default:
		rangeInt64Bits(dom.ivals[row0:], vbits, lo, hi, sub)
	}
	return false
}
