package ml

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// valRowsFromBytes decodes bytes into a sort input: a length of 0-500, a
// shape (palette draws, sorted, reversed or sawtooth runs, with ties) and
// values from a palette of NaN, ±0, ±Inf and a few small integers, so inputs
// are full of ties. Row ids ascend, as in the split search. Missing bytes
// read as zero, so every input decodes.
func valRowsFromBytes(data []byte) []valRow {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := (int(at(0))<<8 | int(at(1))) % 501
	shape, width := at(2)%4, 1+int(at(3))%16
	palette := func(b byte) float64 {
		switch b % 16 {
		case 10:
			return math.NaN()
		case 11:
			return math.Inf(1)
		case 12:
			return math.Inf(-1)
		case 13:
			return math.Copysign(0, -1)
		case 14:
			return 0.5
		case 15:
			return float64(b) // one of 16 larger values
		default:
			return float64(b%16) - 4
		}
	}
	x := make([]valRow, n)
	for k := range x {
		var v float64
		switch shape {
		case 0:
			v = palette(at(4 + k))
		case 1: // ascending runs of width ties
			v = float64(k / width)
		case 2: // descending runs
			v = float64((n - k) / width)
		case 3: // sawtooth of period width
			v = float64(k % width)
		}
		x[k] = valRow{v, int32(k)}
	}
	if shape != 0 {
		// The bytes after the header plant palette values at chosen rows.
		for i := 4; i+1 < len(data) && n > 0; i += 2 {
			x[int(data[i])*n/256].v = palette(data[i+1])
		}
	}
	return x
}

// checkSortMatches sorts x with sortValRows and stably by value alone
// (slices.SortStableFunc under cmp.Compare) and requires the same
// permutation, value bits and row ids alike. x's rows ascend, so the two
// agree only if NaNs, signed zeros and ties all fall where a stable sort puts
// them: the order the test-local reference trainer's per-node stable sorts
// leave, which GBDT's root orders and CART's node sorts must equal.
func checkSortMatches(t *testing.T, x []valRow) {
	t.Helper()
	got, want := slices.Clone(x), slices.Clone(x)
	sortValRows(got)
	slices.SortStableFunc(want, func(a, b valRow) int { return cmp.Compare(a.v, b.v) })
	for k := range got {
		if got[k].r != want[k].r || math.Float64bits(got[k].v) != math.Float64bits(want[k].v) {
			t.Fatalf("n=%d: position %d holds row %d (%v), stable sort row %d (%v)",
				len(x), k, got[k].r, got[k].v, want[k].r, want[k].v)
		}
	}
}

// FuzzSortValRowsMatchesSortFunc requires sortValRows to leave a stable
// sort's exact permutation on any decoded input. The seed corpus covers every
// shape at the lengths around pdqsort's insertion-sort cutoff (12) and its
// ninther's (50), and runs under plain `go test`.
func FuzzSortValRowsMatchesSortFunc(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 2, 7, 12, 13, 14, 49, 50, 51, 64, 100, 257, 500} {
		for shape := 0; shape < 4; shape++ {
			for _, width := range []int{0, 2, 7} {
				b := make([]byte, 4+n)
				rng.Read(b)
				b[0], b[1], b[2], b[3] = byte(n>>8), byte(n), byte(shape), byte(width)
				if shape != 0 && width == 7 {
					b = b[:4] // the pure pattern, nothing planted
				}
				f.Add(b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortMatches(t, valRowsFromBytes(data))
	})
}

// antiqsortInput plays McIlroy's adversary ("A Killer Adversary for
// Quicksort", 1999), as Go's sort.TestAdversary does, against
// slices.SortFunc, and returns the input it commits to: a permutation of
// 0..n-1 on which pdqsort keeps choosing pivots near the bottom of the range
// until it falls back to heapsort, which random inputs never reach. The
// values are distinct, so sortValRows, which breaks ties by row only, makes
// the same comparisons and reaches heapsort too.
//
// Values are fixed only as comparisons demand: an unset ("gas") value is
// above every set one, and when two gas values meet, the pivot candidate (the
// gas element last compared) is set to the next value up. Go's adversary
// alone lets pdqsort's first pivot sample come out in order, and pdqsort then
// finishes with an insertion pass; so the nine elements of that sample are set
// first, to 0..8 out of order.
func antiqsortInput(n int) []valRow {
	const gas = math.MaxInt
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid := 0
	for _, q := range []int{n / 4, n / 2, 3 * n / 4} {
		for _, d := range []int{1, -1, 0} {
			val[q+d] = solid
			solid++
		}
	}
	candidate := int32(-1)
	ids := make([]valRow, n)
	for i := range ids {
		ids[i].r = int32(i)
	}
	slices.SortFunc(ids, func(a, b valRow) int {
		i, j := a.r, b.r
		if val[i] == gas && val[j] == gas {
			if i == candidate {
				val[i] = solid
			} else {
				val[j] = solid
			}
			solid++
		}
		if val[i] == gas {
			candidate = i
		} else if val[j] == gas {
			candidate = j
		}
		return cmp.Compare(val[i], val[j])
	})
	for _, e := range ids { // elements never set are above all set ones
		if val[e.r] == gas {
			val[e.r] = solid
			solid++
		}
	}
	x := make([]valRow, n)
	for i, v := range val {
		x[i] = valRow{float64(v), int32(i)}
	}
	return x
}

func TestSortValRowsAdversary(t *testing.T) {
	for _, n := range []int{64, 1000, 10000} {
		x := antiqsortInput(n)
		checkSortMatches(t, x)
		// The same input with values above n/2 tied in threes. Only
		// heapsort compares two of those (every element a partition meets
		// is set below them first), so pdqsort takes the same path to
		// heapsort, which is not stable: the row ids must order the ties.
		tied := slices.Clone(x)
		for k, e := range tied {
			if h := float64(n / 2); e.v > h {
				tied[k].v = h + math.Floor((e.v-h)/3)
			}
		}
		checkSortMatches(t, tied)
		sortValRows(x)
		for k, e := range x {
			if e.v != float64(k) {
				t.Fatalf("n=%d: adversary input not a permutation of 0..n-1 (position %d holds %v)", n, k, e.v)
			}
		}
	}
}
