package dataframe

import (
	"testing"
)

func TestMorselBounds(t *testing.T) {
	cases := []struct {
		nrows, size int
		want        [][2]int
	}{
		{0, 4, nil},
		{-3, 4, nil},
		{1, 4, [][2]int{{0, 1}}},
		{4, 4, [][2]int{{0, 4}}},
		{5, 4, [][2]int{{0, 4}, {4, 5}}},
		{12, 4, [][2]int{{0, 4}, {4, 8}, {8, 12}}},
		{10, 3, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
	}
	for _, c := range cases {
		got := MorselBounds(c.nrows, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("MorselBounds(%d, %d) = %v, want %v", c.nrows, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("MorselBounds(%d, %d) = %v, want %v", c.nrows, c.size, got, c.want)
			}
		}
	}
	// size <= 0 selects the default: one bound per DefaultMorselRows rows,
	// covering every row exactly once.
	bounds := MorselBounds(DefaultMorselRows+1, 0)
	if len(bounds) != 2 || bounds[0] != [2]int{0, DefaultMorselRows} || bounds[1] != [2]int{DefaultMorselRows, DefaultMorselRows + 1} {
		t.Fatalf("default-size bounds = %v", bounds)
	}
}

// TestMorselsExactCover requires the bounds of every (rows, size) pair to
// tile 0..rows in order: each range starts where the last ended, none is
// empty or longer than size, and only the last may be short.
func TestMorselsExactCover(t *testing.T) {
	for nrows := 0; nrows <= 40; nrows++ {
		for size := 1; size <= 9; size++ {
			bounds := MorselBounds(nrows, size)
			next := 0
			for i, b := range bounds {
				if b[0] != next {
					t.Fatalf("MorselBounds(%d, %d)[%d] starts at %d, want %d (gap or overlap)", nrows, size, i, b[0], next)
				}
				n := b[1] - b[0]
				if n <= 0 || n > size || (n < size && i != len(bounds)-1) {
					t.Fatalf("MorselBounds(%d, %d)[%d] = %v: bad length", nrows, size, i, b)
				}
				next = b[1]
			}
			if next != nrows {
				t.Fatalf("MorselBounds(%d, %d) covers %d rows", nrows, size, next)
			}
		}
	}
}
