package query

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/datagen"
)

// quantileGridSort is the sort-and-index grid quantileGrid must reproduce
// bit for bit: copy the non-null values, sort.Float64s them, index the ranks.
func quantileGridSort(col *dataframe.Column, n int) []float64 {
	vals := make([]float64, 0, col.Len())
	for i := 0; i < col.Len(); i++ {
		if v, ok := col.AsFloat(i); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	grid := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		if n == 1 {
			q = 0.5
		}
		idx := int(q * float64(len(vals)-1))
		v := vals[idx]
		if len(grid) == 0 || grid[len(grid)-1] != v {
			grid = append(grid, v)
		}
	}
	return grid
}

// gridColumn builds a numeric column for the grid fuzz target. kind picks
// float, int or time. mode's low two bits force zeros into a float column
// (none, only -0, only +0, both); the next two add specials (none; NULLs;
// NULLs and ±Inf or int extremes; those and NaNs); its high nibble sets the
// palette of non-zero values the rest repeat from (1 value up to 226, or
// all distinct at 15).
// raw appends 8-byte values as they are (float bits or int64). With every
// special on, a float column also gets NaNs at non-NULL rows, written through
// FloatData after construction, as a caller holding the slice can.
func gridColumn(kind, mode uint8, length uint16, seed int64, raw []byte) *dataframe.Column {
	rng := rand.New(rand.NewSource(seed))
	m := int(length) % 4000
	zeros, specials, pal := mode&3, mode>>2&3, int(mode>>4)
	valid := make([]bool, 0, m+len(raw)/8)
	value := func() (float64, int64) {
		switch r := rng.Intn(16); {
		case specials >= 1 && r == 0:
			valid = append(valid, false)
			return 0, 0
		case specials >= 2 && r == 1:
			valid = append(valid, true)
			if rng.Intn(2) == 0 {
				return math.Inf(-1), math.MinInt64
			}
			return math.Inf(1), math.MaxInt64
		case specials >= 3 && r == 2:
			valid = append(valid, true) // the constructor marks it NULL
			return math.NaN(), 0
		case zeros != 0 && r >= 3 && r <= 5:
			valid = append(valid, true)
			if zeros == 1 || zeros == 3 && rng.Intn(2) == 0 {
				return math.Copysign(0, -1), 0
			}
			return 0, 0
		}
		valid = append(valid, true)
		if pal == 15 {
			x := rng.NormFloat64() * 1e3
			return x, int64(x)
		}
		k := rng.Intn(1+pal*pal) - pal*pal/2
		if k >= 0 {
			k++ // zeros come only from the zero bits
		}
		return float64(k) * 0.5, int64(k)
	}
	switch kind % 3 {
	case 0:
		vals := make([]float64, 0, cap(valid))
		for range m {
			v, _ := value()
			vals = append(vals, v)
		}
		for ; len(raw) >= 8; raw = raw[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			valid = append(valid, true)
		}
		col := dataframe.NewFloatColumn("x", vals, valid)
		if specials == 3 {
			for i, ok := range col.ValidData() {
				if ok && rng.Intn(32) == 0 {
					col.FloatData()[i] = math.NaN()
				}
			}
		}
		return col
	default:
		vals := make([]int64, 0, cap(valid))
		for range m {
			_, v := value()
			vals = append(vals, v)
		}
		for ; len(raw) >= 8; raw = raw[8:] {
			vals = append(vals, int64(binary.LittleEndian.Uint64(raw)))
			valid = append(valid, true)
		}
		if kind%3 == 1 {
			return dataframe.NewIntColumn("x", vals, valid)
		}
		return dataframe.NewTimeColumn("x", vals, valid)
	}
}

// FuzzQuantileGridMatchesSort checks that the selection-based quantileGrid
// picks bit for bit the values the sort-and-index reference picks, over
// float, int and time columns with NULLs, NaNs, infinities, heavy
// duplicates and signed zeros, for 1 to 20 grid points.
func FuzzQuantileGridMatchesSort(f *testing.F) {
	for kind := uint8(0); kind < 3; kind++ {
		for _, mode := range []uint8{0x00, 0x0c, 0x11, 0x32, 0x33, 0xf3, 0xff, 0x2f, 0x05} {
			f.Add(kind, uint8(7), mode, uint16(kind)*900+300, int64(mode), []byte{})
		}
	}
	f.Add(uint8(0), uint8(19), uint8(0x03), uint16(3000), int64(1), []byte{})
	negZeros := make([]byte, 64)
	for i := 7; i < len(negZeros); i += 8 {
		negZeros[i] = 0x80
	}
	f.Add(uint8(0), uint8(5), uint8(0x00), uint16(0), int64(0), make([]byte, 64)) // only +0
	f.Add(uint8(0), uint8(5), uint8(0x00), uint16(0), int64(0), negZeros)         // only -0
	f.Add(uint8(0), uint8(5), uint8(0x00), uint16(0), int64(0), append(negZeros, make([]byte, 64)...))
	f.Add(uint8(1), uint8(4), uint8(0x00), uint16(0), int64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 255, 255, 255, 255, 255, 255, 255, 127})
	f.Fuzz(func(t *testing.T, kind, n, mode uint8, length uint16, seed int64, raw []byte) {
		col := gridColumn(kind, mode, length, seed, raw)
		points := 1 + int(n)%20
		got, want := quantileGrid(col, points), quantileGridSort(col, points)
		if len(got) != len(want) {
			t.Fatalf("grid %v, want %v", got, want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("grid %v, want %v (bitwise, point %d)", got, want, i)
			}
		}
	})
}

// BenchmarkQuantileGrid times one grid over each numeric predicate column of
// the ingest-clickstream relevant table (~210k rows).
func BenchmarkQuantileGrid(b *testing.B) {
	r := datagen.NewClickstream(datagen.Options{TrainRows: 10000, LogsPerKey: 20, Seed: 1}).Relevant
	for _, attr := range []string{"dwell", "ts"} {
		col := r.Column(attr)
		b.Run(attr, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				quantileGrid(col, DefaultNumGridPoints)
			}
		})
	}
}
