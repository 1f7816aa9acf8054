package dataframe

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// dictTwoPass is the reference encoder the built and extended encodings must
// equal field for field: one map pass for the first-seen domain (nil past
// maxCard) and its sorted order, then a second map pass for the per-row
// codes (0 at NULL rows).
func dictTwoPass(strs []string, valid []bool, maxCard int) *DictEncoding {
	index := make(map[string]uint16)
	var values []string
	for i, s := range strs {
		if !valid[i] {
			continue
		}
		if _, dup := index[s]; !dup {
			if len(values) >= maxCard {
				return nil
			}
			index[s] = uint16(len(values))
			values = append(values, s)
		}
	}
	sorted := make([]uint16, len(values))
	for i := range sorted {
		sorted[i] = uint16(i)
	}
	slices.SortFunc(sorted, func(a, b uint16) int { return strings.Compare(values[a], values[b]) })
	n := len(strs)
	d := &DictEncoding{values: values, sorted: sorted, codes: make([]uint16, n), validBits: make([]uint64, (n+63)/64)}
	for i, s := range strs {
		if valid[i] {
			d.codes[i] = index[s]
			d.validBits[i>>6] |= 1 << uint(i&63)
		}
	}
	return d
}

// sameDict reports how got differs from want, or "" when they match in
// every field, NULL rows' codes included. Nil and empty slices match.
func sameDict(got, want *DictEncoding) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("encoding %v, want %v", got, want)
	case got == nil:
		return ""
	case !slices.Equal(got.values, want.values):
		return fmt.Sprintf("values %q, want %q", got.values, want.values)
	case !slices.Equal(got.sorted, want.sorted):
		return fmt.Sprintf("sorted %v, want %v", got.sorted, want.sorted)
	case !slices.Equal(got.codes, want.codes):
		return fmt.Sprintf("codes %v, want %v", got.codes, want.codes)
	case !slices.Equal(got.validBits, want.validBits):
		return fmt.Sprintf("valid bits %b, want %b", got.validBits, want.validBits)
	}
	return ""
}

// randomStrings draws rows values from a card-value domain (shuffled, so
// first-seen order is not sorted order), about nullPct percent NULL.
func randomStrings(rng *rand.Rand, rows, card, nullPct int) ([]string, []bool) {
	domain := make([]string, card)
	for i := range domain {
		domain[i] = fmt.Sprintf("v%04d", rng.Intn(100000))
	}
	vals, valid := make([]string, rows), make([]bool, rows)
	for i := range vals {
		vals[i] = domain[rng.Intn(card)]
		valid[i] = rng.Intn(100) >= nullPct
	}
	return vals, valid
}

// TestDictEncodingMatchesTwoPass checks the one-pass builder against the
// two-pass reference: random columns with NULLs, a domain exactly at
// MaxDictCardinality (encoded) and one past it (nil), and the in-place
// extension a mid-domain AppendRows makes.
func TestDictEncodingMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		rows := rng.Intn(3000)
		vals, valid := randomStrings(rng, rows, 1+rng.Intn(200), rng.Intn(60))
		c := NewStringColumn("s", vals, valid)
		if diff := sameDict(c.Dict(), dictTwoPass(c.strs, c.valid, MaxDictCardinality)); diff != "" {
			t.Fatalf("trial %d (%d rows): %s", trial, rows, diff)
		}
	}

	for _, card := range []int{MaxDictCardinality, MaxDictCardinality + 1} {
		vals := make([]string, 0, 3*card)
		for i := range card {
			vals = append(vals, fmt.Sprintf("c%05d", (i*7919)%card))
		}
		valid := make([]bool, len(vals))
		for i := range valid {
			valid[i] = true
		}
		for range 2 * card { // repeats and NULLs after the whole domain
			vals = append(vals, vals[rng.Intn(card)])
			valid = append(valid, rng.Intn(4) != 0)
		}
		c := NewStringColumn("s", vals, valid)
		got, want := c.Dict(), dictTwoPass(c.strs, c.valid, MaxDictCardinality)
		if (got == nil) != (card > MaxDictCardinality) {
			t.Fatalf("card %d: encoding %v", card, got)
		}
		if diff := sameDict(got, want); diff != "" {
			t.Fatalf("card %d: %s", card, diff)
		}
	}

	base, baseOK := randomStrings(rng, 500, 30, 10)
	tbl := MustNewTable(NewStringColumn("s", base, baseOK))
	first := tbl.Column("s").Dict()
	mid := slices.Min(first.values) + "m" // sorts inside the domain
	add, addOK := randomStrings(rng, 200, 30, 10)
	add[77], addOK[77] = mid, true
	if err := tbl.AppendRows(MustNewTable(NewStringColumn("s", add, addOK))); err != nil {
		t.Fatal(err)
	}
	c := tbl.Column("s")
	if c.Dict() != first {
		t.Fatal("a mid-domain append must extend the encoding in place")
	}
	if diff := sameDict(first, dictTwoPass(c.strs, c.valid, MaxDictCardinality)); diff != "" {
		t.Fatalf("extended in place after append: %s", diff)
	}
}
