// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is Go 1.24's pattern-defeating quicksort (src/slices/
// zsortanyfunc.go, with sortedHint, xorshift and nextPowerOfTwo from
// src/slices/sort.go), specialised to valRow: every cmp(x, y) < 0 reads
// x.v < y.v, which holds exactly when cmpValue(x.v, y.v) < 0 (the test
// oracle's comparator, pdqsort_test.go), so sortValRows leaves the
// permutation slices.SortFunc leaves with cmpValue on the values, ties and
// NaN included (FuzzSortValRowsMatchesSortFunc). The stable sort helpers are
// dropped. GBDT's and CART's (so RandomForest's)
// models depend on this permutation, so the code is kept here rather than
// taken from the toolchain: a Go upgrade must not change it.

package ml

import "math/bits"

// sortValRows sorts x by value, leaving pdqsort's permutation of ties.
func sortValRows(x []valRow) {
	n := len(x)
	pdqsortValRows(x, 0, n, bits.Len(uint(n)))
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// insertionSortValRows sorts data[a:b] using insertion sort.
func insertionSortValRows(data []valRow, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && (data[j].v < data[j-1].v); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownValRows implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownValRows(data []valRow, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && (data[first+child].v < data[first+child+1].v) {
			child++
		}
		if !(data[first+root].v < data[first+child].v) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortValRows(data []valRow, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownValRows(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownValRows(data, lo, i, first)
	}
}

// pdqsortValRows sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// C++ implementation: https://github.com/orlp/pdqsort
// Rust implementation: https://docs.rs/pdqsort/latest/pdqsort/
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsortValRows(data []valRow, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortValRows(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortValRows(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsValRows(data, a, b)
			limit--
		}

		pivot, hint := choosePivotValRows(data, a, b)
		if hint == decreasingHint {
			reverseRangeValRows(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			// The idea came from Rust's implementation.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortValRows(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(data[a-1].v < data[pivot].v) {
			mid := partitionEqualValRows(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionValRows(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortValRows(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortValRows(data, mid+1, b, limit)
			b = mid
		}
	}
}

// partitionValRows does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionValRows(data []valRow, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && (data[i].v < data[a].v) {
		i++
	}
	for i <= j && !(data[j].v < data[a].v) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && (data[i].v < data[a].v) {
			i++
		}
		for i <= j && !(data[j].v < data[a].v) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualValRows partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualValRows(data []valRow, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(data[a].v < data[i].v) {
			i++
		}
		for i <= j && (data[a].v < data[j].v) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortValRows partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortValRows(data []valRow, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].v < data[i-1].v) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].v < data[j-1].v) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].v < data[j-1].v) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsValRows scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsValRows(data []valRow, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotValRows chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotValRows(data []valRow, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentValRows(data, i, &swaps)
			j = medianAdjacentValRows(data, j, &swaps)
			k = medianAdjacentValRows(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianValRows(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2ValRows returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2ValRows(data []valRow, a, b int, swaps *int) (int, int) {
	if data[b].v < data[a].v {
		*swaps++
		return b, a
	}
	return a, b
}

// medianValRows returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianValRows(data []valRow, a, b, c int, swaps *int) int {
	a, b = order2ValRows(data, a, b, swaps)
	b, c = order2ValRows(data, b, c, swaps)
	a, b = order2ValRows(data, a, b, swaps)
	return b
}

// medianAdjacentValRows finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentValRows(data []valRow, a int, swaps *int) int {
	return medianValRows(data, a-1, a, a+1, swaps)
}

func reverseRangeValRows(data []valRow, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
