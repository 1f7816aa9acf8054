package dataframe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// dictTwoPass is the two-pass builder buildDictEncoding must reproduce byte
// for byte: one map pass for the distinct domain (nil past maxCard), a sort,
// then a second map pass for the per-row codes (0 at NULL rows).
func dictTwoPass(c *Column, maxCard int) *DictEncoding {
	ranks := make(map[string]uint16)
	for i, s := range c.strs {
		if !c.valid[i] {
			continue
		}
		if _, dup := ranks[s]; !dup {
			if len(ranks) >= maxCard {
				return nil
			}
			ranks[s] = 0
		}
	}
	values := make([]string, 0, len(ranks))
	for s := range ranks {
		values = append(values, s)
	}
	slices.Sort(values)
	for rank, s := range values {
		ranks[s] = uint16(rank)
	}
	n := len(c.strs)
	d := &DictEncoding{values: values, codes: make([]uint16, n), validBits: make([]uint64, (n+63)/64)}
	for i, s := range c.strs {
		if !c.valid[i] {
			d.nulls++
			continue
		}
		d.codes[i] = ranks[s]
		d.validBits[i>>6] |= 1 << uint(i&63)
	}
	return d
}

// sameDict reports how got differs from want, or "" when they match in
// every field, NULL rows' codes included.
func sameDict(got, want *DictEncoding) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("encoding %v, want %v", got, want)
	case got == nil:
		return ""
	case !slices.Equal(got.Values(), want.Values()):
		return fmt.Sprintf("values %q, want %q", got.Values(), want.Values())
	case !slices.Equal(got.Codes(), want.Codes()):
		return fmt.Sprintf("codes %v, want %v", got.Codes(), want.Codes())
	case !slices.Equal(got.ValidBits(), want.ValidBits()):
		return fmt.Sprintf("valid bits %b, want %b", got.ValidBits(), want.ValidBits())
	case got.NullCount() != want.NullCount():
		return fmt.Sprintf("nulls %d, want %d", got.NullCount(), want.NullCount())
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
// MaxDictCardinality (encoded) and one past it (nil), and the re-encode a
// mid-domain AppendRows triggers.
func TestDictEncodingMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		rows := rng.Intn(3000)
		vals, valid := randomStrings(rng, rows, 1+rng.Intn(200), rng.Intn(60))
		c := NewStringColumn("s", vals, valid)
		if diff := sameDict(c.Dict(), dictTwoPass(c, MaxDictCardinality)); diff != "" {
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
		got, want := c.Dict(), dictTwoPass(c, MaxDictCardinality)
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
	mid := first.Values()[0] + "m" // sorts between the first two values
	add, addOK := randomStrings(rng, 200, 30, 10)
	add[77], addOK[77] = mid, true
	if err := tbl.AppendRows(MustNewTable(NewStringColumn("s", add, addOK))); err != nil {
		t.Fatal(err)
	}
	c := tbl.Column("s")
	again := c.Dict()
	if again == first {
		t.Fatal("a mid-domain append must re-encode the column")
	}
	if diff := sameDict(again, dictTwoPass(c, MaxDictCardinality)); diff != "" {
		t.Fatalf("re-encode after append: %s", diff)
	}
}
