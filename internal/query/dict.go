package query

// Dictionary-backed scan kernels. String equality predicates resolve the
// operand to its dictionary code once and then compare the column's uint16
// codes; int/time range predicates compare the raw int64s, read through the
// column's cached integer probe (intProbe), against exact integer bounds.
// The two kernels build each 64-row bitmap word branch-free — per-row
// compares compile to flag-set instructions, the word is AND-ed with the
// column's validity bitmap — so the predicate hot loop carries no per-row
// branch misprediction and no string compares at all.
//
// The kernels read the column's own encoding (Column.Dict, cached on the
// column, so tables sharing a column share one encode pass) and are the only
// readers of dictionary codes: every predicate, mask and plan cache keys on
// operand values (predKey). An append only adds codes (first-seen order), and
// a cap crossing drops the encoding; either way every entry stays valid and
// an append extends it like any other. Columns above
// MaxDictCardinality get no encoding and take the unencoded fallbacks; the
// differential tests compare both shapes against Query.Execute.

import (
	"math"
	"sync"

	"repro/internal/dataframe"
)

// noteCodePred records one predicate bitmap built through the code kernels.
func (e *Executor) noteCodePred() {
	e.mu.Lock()
	e.stats.CodePredScans++
	e.mu.Unlock()
}

// eqCodeBits fills bm one 64-row word at a time with the rows whose code
// equals target, masked to valid rows.
func eqCodeBits(codes []uint16, vbits []uint64, target uint16, bm []uint64) {
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

// rangeInt64Bits is the range kernel: lo <= vals[i] <= hi over the raw int64
// column, masked to valid rows.
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

// dictEqBitsFrom fills the equality bitmap for rows [lo, n) from the
// encoding's codes. The kernel runs over the word-aligned subslices starting
// at lo (a multiple of 64, or 0), so a delta advance pays only for the
// appended words.
func dictEqBitsFrom(enc *dataframe.DictEncoding, code uint16, bm []uint64, lo int) {
	w0 := lo >> 6
	eqCodeBits(enc.Codes()[lo:], enc.ValidBits()[w0:], code, bm[w0:])
}

// twoPow63 is 2^63 as a float64 (exact). float64(math.MaxInt64) rounds UP to
// this value, so a float bound >= twoPow63 exceeds every int64 and a bound
// of exactly -twoPow63 equals math.MinInt64.
const twoPow63 = float64(1<<62) * 2

// intRangeBounds converts a float range predicate into the equivalent
// inclusive int64 interval: float64(v) >= Lo iff v >= ceil(Lo), float64(v)
// <= Hi iff v <= floor(Hi) — exact whenever |v| <= 2^53, which the intOK
// probe gate guarantees. empty means no integer can satisfy the predicate.
// Bounds are never NaN here: decomposePreds drops a NaN bound.
func intRangeBounds(p Predicate) (lo, hi int64, empty bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	if p.HasLo {
		c := math.Ceil(p.Lo)
		switch {
		case c >= twoPow63:
			return 0, 0, true
		case c >= -twoPow63:
			lo = int64(c)
		}
	}
	if p.HasHi {
		f := math.Floor(p.Hi)
		switch {
		case f < -twoPow63:
			return 0, 0, true
		case f < twoPow63:
			hi = int64(f)
		}
	}
	return lo, hi, lo > hi
}

// intRangeBitsFrom serves a range predicate over an int/time column for rows
// [row0, n), row0 word-aligned (0, or the delta-advance start), from the
// column's integer probe: exact integer bounds compared against the raw
// int64s. An interval that misses the observed range selects nothing and
// skips the scan; the range only widens under appends, so the rows a skipped
// scan left unset stay correct.
func intRangeBitsFrom(ip *intProbe, p Predicate, bm []uint64, row0 int) {
	lo, hi, empty := intRangeBounds(p)
	if empty || lo > ip.mx || hi < ip.mn {
		return
	}
	w0 := row0 >> 6
	rangeInt64Bits(ip.ivals[row0:], ip.vbits[w0:], lo, hi, bm[w0:])
}

// maxExactIntAbs bounds |value| so float64(value) is exact, which makes the
// integer range kernel equivalent to the row-at-a-time float64(v) loops
// (rangeRowsFrom).
const maxExactIntAbs = int64(1) << 53

// intProbe is the cached state the range kernel reads for one int/time
// column: its observed non-null bounds and, when every value is exact as a
// float64 (intOK), the backing ints and a validity bitmap. One function fills
// it, extend: the once extends it from row zero, and an append, under the
// core's epoch fence, from the rows it covers (see delta.go). It is
// read-only otherwise.
type intProbe struct {
	once   sync.Once
	intOK  bool     // seen, and every value within maxExactIntAbs: the kernel serves the column
	seen   bool     // some non-null value observed (mn/mx defined)
	nrows  int      // rows the probe covers
	mn, mx int64    // observed non-null min/max (valid when seen)
	ivals  []int64  // backing ints (shared with the column; nil unless intOK)
	vbits  []uint64 // validity bitmap, LSB-first per word (nil unless intOK)
}

// intProbeFor returns the cached probe of an int/time column, running it on
// first use. Probes live in the core (they depend only on the column), so
// executors sharing a core run each probe, a full-table pass, once between
// them.
func (e *Executor) intProbeFor(col *dataframe.Column) *intProbe {
	c := e.core
	c.mu.Lock()
	if c.probes == nil {
		c.probes = map[string]*intProbe{}
	}
	ip, ok := c.probes[col.Name()]
	if !ok {
		ip = &intProbe{}
		c.probes[col.Name()] = ip
	}
	c.mu.Unlock()
	if !ok {
		e.mu.Lock()
		e.stats.SharedScanPasses++
		e.mu.Unlock()
	}
	ip.once.Do(func() { ip.extend(col) })
	return ip
}

// extend absorbs the column's rows past the probe's coverage, leaving
// exactly the state a probe of the whole column from row zero would. Bounds
// only widen, so intOK is simply "seen and within ±maxExactIntAbs": once
// lost it stays lost, and while it holds, every row before the first
// non-null value is NULL, so the validity bits of the covered rows are
// already right (zero when the probe had seen nothing).
func (ip *intProbe) extend(col *dataframe.Column) {
	vals, valid := col.IntData(), col.ValidData()
	n := len(vals)
	mn, mx, seen := ip.mn, ip.mx, ip.seen
	for i := ip.nrows; i < n; i++ {
		if !valid[i] {
			continue
		}
		switch v := vals[i]; {
		case !seen:
			mn, mx, seen = v, v, true
		case v < mn:
			mn = v
		case v > mx:
			mx = v
		}
	}
	ip.mn, ip.mx, ip.seen = mn, mx, seen
	ip.intOK = seen && mn >= -maxExactIntAbs && mx <= maxExactIntAbs
	if !ip.intOK {
		ip.ivals, ip.vbits = nil, nil
	} else {
		ip.ivals = vals // appends may have reallocated the backing slice
		ip.vbits = growTo(ip.vbits, (n+63)/64)
		for i := ip.nrows; i < n; i++ {
			if valid[i] {
				ip.vbits[i>>6] |= 1 << uint(i&63)
			}
		}
	}
	ip.nrows = n
}
