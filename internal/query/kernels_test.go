package query

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataframe"
)

// randValidBits builds a random validity bitmap for n rows (tail bits beyond n
// are zero, matching DictEncoding.ValidBits).
func randValidBits(rng *rand.Rand, n int) []uint64 {
	vb := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if rng.Float64() > 0.2 {
			vb[i>>6] |= 1 << uint(i&63)
		}
	}
	return vb
}

// rowLoopBits is the per-row oracle the word kernels must reproduce: bit i
// (LSB-first within word i/64) is set iff row i is valid and matches.
func rowLoopBits(n int, vbits []uint64, match func(i int) bool) []uint64 {
	bm := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if vbits[i>>6]&(1<<uint(i&63)) != 0 && match(i) {
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
	return bm
}

// checkFromOffsets runs fill at every word-aligned start row lo in [0, n] —
// the offsets a delta advance passes — over a bitmap pre-filled with a
// sentinel, and checks that words below lo/64 are untouched and every word
// from lo/64 on equals the oracle.
func checkFromOffsets(t *testing.T, label string, n int, want []uint64, fill func(lo int, bm []uint64)) {
	t.Helper()
	const sentinel = 0xdeadbeefcafef00d
	for lo := 0; lo <= n; lo += 64 {
		bm := make([]uint64, len(want))
		for wi := range bm {
			bm[wi] = sentinel
		}
		fill(lo, bm)
		for wi := range bm {
			if wi < lo>>6 {
				if bm[wi] != sentinel {
					t.Fatalf("%s n=%d lo=%d: word %d below the start was written", label, n, lo, wi)
				}
			} else if bm[wi] != want[wi] {
				t.Fatalf("%s n=%d lo=%d word %d: got %016x want %016x", label, n, lo, wi, bm[wi], want[wi])
			}
		}
	}
}

// TestEqCodeBitsMatchesRowLoop checks the uint16 equality kernel against the
// per-row loop for every length 0–130 (empty, ragged and whole words) and
// every word-aligned start, with targets at both ends of the code range.
func TestEqCodeBitsMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 130; n++ {
		vb := randValidBits(rng, n)
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(rng.Intn(4))
			if rng.Intn(8) == 0 {
				codes[i] = math.MaxUint16 - uint16(rng.Intn(2))
			}
		}
		for _, target := range []uint16{0, 1, 3, 7, math.MaxUint16 - 1, math.MaxUint16} {
			want := rowLoopBits(n, vb, func(i int) bool { return codes[i] == target })
			checkFromOffsets(t, "eq", n, want, func(lo int, bm []uint64) {
				eqCodeBits(codes[lo:], vb[lo>>6:], target, bm[lo>>6:])
			})
		}
	}
}

// TestRangeInt64BitsMatchesRowLoop checks the int64 range kernel against the
// per-row loop for every length 0–130 and every word-aligned start, with
// bounds at and past the int64 extremes and empty intervals (lo > hi).
func TestRangeInt64BitsMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bounds := []int64{math.MinInt64, -1 << 40, -3, -1, 0, 1, 2, 5, 1 << 40, math.MaxInt64}
	for n := 0; n <= 130; n++ {
		vb := randValidBits(rng, n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(11)) - 5
			if rng.Intn(10) == 0 {
				vals[i] = bounds[rng.Intn(len(bounds))]
			}
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				want := rowLoopBits(n, vb, func(i int) bool { return vals[i] >= lo && vals[i] <= hi })
				checkFromOffsets(t, "range", n, want, func(row0 int, bm []uint64) {
					rangeInt64Bits(vals[row0:], vb[row0>>6:], lo, hi, bm[row0>>6:])
				})
			}
		}
	}
}

// evalBits is Predicate.Eval over the whole table as a bitmap: the
// row-at-a-time oracle for the From entry points.
func evalBits(t *testing.T, tbl *dataframe.Table, p Predicate) []uint64 {
	t.Helper()
	n := tbl.NumRows()
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	if err := p.Eval(tbl, mask); err != nil {
		t.Fatal(err)
	}
	bm := make([]uint64, (n+63)/64)
	for i, m := range mask {
		if m {
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
	return bm
}

// TestCodeKernelsFromMatchEval drives the entry points fillPredBits
// uses — dictEqBitsFrom over a column's dictionary and intRangeBitsFrom over
// its integer probe — at every word-aligned start against Predicate.Eval, on
// columns with NULLs and lengths 0–130. Range bounds cover fractional and
// infinite operands and intervals that miss the observed domain (the
// probe-side skip).
func TestCodeKernelsFromMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	words := []string{"a", "b", "c", "d"}
	ranges := []Predicate{
		{HasLo: true, Lo: -2.5},
		{HasHi: true, Hi: 3.5},
		{HasLo: true, Lo: -1, HasHi: true, Hi: 1},
		{HasLo: true, Lo: 4.2, HasHi: true, Hi: 4.8}, // no integer inside
		{HasLo: true, Lo: 100},                       // above the domain
		{HasHi: true, Hi: -100},                      // below the domain
		{HasLo: true, Lo: math.Inf(-1), HasHi: true, Hi: math.Inf(1)},
		{HasHi: true, Hi: -twoPow63},
	}
	for n := 0; n <= 130; n++ {
		strs := make([]string, n)
		ints := make([]int64, n)
		valid := make([]bool, n)
		for i := range strs {
			strs[i] = words[rng.Intn(len(words))]
			ints[i] = int64(rng.Intn(13)) - 6
			valid[i] = rng.Float64() > 0.2
		}
		tbl := dataframe.MustNewTable(
			dataframe.NewStringColumn("s", strs, valid),
			dataframe.NewIntColumn("i", ints, valid),
		)
		enc := tbl.Column("s").Dict()
		for _, v := range append(words, "zz") {
			p := Predicate{Attr: "s", Kind: PredEq, StrValue: v}
			code, ok := enc.CodeOf(v)
			checkFromOffsets(t, "eq "+v, n, evalBits(t, tbl, p), func(lo int, bm []uint64) {
				for wi := lo >> 6; wi < len(bm); wi++ {
					bm[wi] = 0 // a skipped scan writes nothing: start from a fresh build's zeros
				}
				if ok {
					dictEqBitsFrom(enc, code, bm, lo)
				}
			})
		}
		ip := &intProbe{}
		ip.extend(tbl.Column("i"))
		if !ip.intOK {
			continue // all-NULL column: the executor takes the float fallback
		}
		for _, p := range ranges {
			p.Attr, p.Kind = "i", PredRange
			checkFromOffsets(t, p.String(), n, evalBits(t, tbl, p), func(lo int, bm []uint64) {
				for wi := lo >> 6; wi < len(bm); wi++ {
					bm[wi] = 0
				}
				intRangeBitsFrom(ip, p, bm, lo)
			})
		}
	}
}
