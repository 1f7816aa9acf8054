package dataframe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fuzzValue draws a value name from [0, span): "v%d" without padding, so new
// values land anywhere in the sorted domain ("v10" < "v2").
func fuzzValue(rng *rand.Rand, span int) string {
	return fmt.Sprintf("v%d", rng.Intn(span))
}

// naiveDistinct returns the sorted distinct valid values of strs.
func naiveDistinct(strs []string, valid []bool) []string {
	var out []string
	for i, s := range strs {
		if valid[i] {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// checkDictColumn requires c to hold exactly the rows strs/valid through
// every reader: per-row decode, DistinctStrings and Floats against naive
// versions, and, when c has an encoding, codes that decode to its rows over a
// sorted order that is an ascending permutation of the domain. A compact
// column must have an encoding.
func checkDictColumn(t *testing.T, label string, c *Column, strs []string, valid []bool) {
	t.Helper()
	if c.Len() != len(strs) {
		t.Fatalf("%s: %d rows, want %d", label, c.Len(), len(strs))
	}
	for i := range strs {
		if c.IsNull(i) != !valid[i] || (valid[i] && c.Str(i) != strs[i]) {
			t.Fatalf("%s row %d: (%q, null %v), want (%q, null %v)", label, i, c.Str(i), c.IsNull(i), strs[i], !valid[i])
		}
	}
	distinct := naiveDistinct(strs, valid)
	if got := c.DistinctStrings(0); !slices.Equal(got, distinct) {
		t.Fatalf("%s: DistinctStrings = %q, want %q", label, got, distinct)
	}
	f, fv := c.Floats()
	for i, s := range strs {
		want := -1.0
		if valid[i] {
			r, _ := slices.BinarySearch(distinct, s)
			want = float64(r)
		}
		if f[i] != want || fv[i] != valid[i] {
			t.Fatalf("%s: Floats row %d = (%v, %v), want (%v, %v)", label, i, f[i], fv[i], want, valid[i])
		}
	}
	enc := c.Dict()
	if enc == nil {
		if c.IsCompact() {
			t.Fatalf("%s: compact column without an encoding", label)
		}
		return
	}
	if len(enc.sorted) != len(enc.values) {
		t.Fatalf("%s: %d sorted codes over %d values", label, len(enc.sorted), len(enc.values))
	}
	seen := make([]bool, len(enc.values))
	for i, code := range enc.sorted {
		if int(code) >= len(seen) || seen[code] || (i > 0 && enc.values[enc.sorted[i-1]] >= enc.values[code]) {
			t.Fatalf("%s: sorted %v is not an ascending permutation of %q", label, enc.sorted, enc.values)
		}
		seen[code] = true
	}
	if len(enc.codes) != len(strs) {
		t.Fatalf("%s: %d codes over %d rows", label, len(enc.codes), len(strs))
	}
	for i, s := range strs {
		bit := enc.validBits[i>>6]>>uint(i&63)&1 == 1
		if bit != valid[i] || (valid[i] && enc.values[enc.codes[i]] != s) {
			t.Fatalf("%s row %d: code %d (valid bit %v) does not decode to %q", label, i, enc.codes[i], bit, s)
		}
		if code, ok := enc.CodeOf(s); valid[i] && (!ok || code != enc.codes[i]) {
			t.Fatalf("%s: CodeOf(%q) = %d,%v, want %d", label, s, code, ok, enc.codes[i])
		}
	}
}

// FuzzDictAppendMatchesFresh drives string columns through random appends —
// AppendStr, AppendNull and AppendRows of raw or compact batches, with values
// in, inside and past the domain, up to and across MaxDictCardinality — and
// after every step requires:
//   - a raw column's encoding to equal a from-scratch encode of its rows
//     (values, sorted order, codes, validity bits), and nil past the cap;
//   - a compact twin to equal it too, or to have rematerialised past the cap;
//   - Take and Clone siblings of a compact and of a raw parent to equal it
//     too, while every step also appends a value to both parents, whose
//     encodings must equal a from-scratch encode of their own rows;
//   - every column's DistinctStrings and Floats to equal naive ones.
func FuzzDictAppendMatchesFresh(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(5), uint8(0), []byte{0, 1, 2, 3})
	f.Add(int64(2), uint16(6), uint16(40), uint8(3), []byte{0, 0, 4, 1, 2, 8, 3})
	f.Add(int64(3), uint16(MaxDictCardinality-1), uint16(2500), uint8(1), []byte{0, 4, 8, 12, 3, 7, 11, 15})
	f.Add(int64(4), uint16(MaxDictCardinality), uint16(1800), uint8(20), []byte{2, 0, 3})
	f.Add(int64(5), uint16(MaxDictCardinality+60), uint16(2000), uint8(7), []byte{0, 1, 2})
	f.Add(int64(6), uint16(300), uint16(0), uint8(2), []byte{255, 3, 3, 3, 3, 3, 3})
	f.Add(int64(7), uint16(900), uint16(1200), uint8(90), []byte{63, 127, 191, 255, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, palette, rows uint16, mode uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		nPal := 1 + int(palette)%(MaxDictCardinality+100)
		nullPct := int(mode>>1) % 50
		if len(ops) > 24 {
			ops = ops[:24]
		}
		parentStrs := make([]string, int(rows)%3000)
		parentValid := make([]bool, len(parentStrs))
		for i := range parentStrs {
			parentStrs[i], parentValid[i] = fuzzValue(rng, nPal), rng.Intn(100) >= nullPct
		}
		idx := make([]int, len(parentStrs))
		for i := range idx {
			idx[i] = i
		}
		if mode&1 == 1 { // Take a random subset, repeats allowed; else Clone
			idx = idx[:rng.Intn(len(idx)+1)]
			for i := range idx {
				idx[i] = rng.Intn(len(parentStrs))
			}
		}
		strs, valid := make([]string, len(idx)), make([]bool, len(idx))
		for j, i := range idx {
			strs[j], valid[j] = parentStrs[i], parentValid[i]
		}

		compParent := NewStringColumn("s", slices.Clone(parentStrs), slices.Clone(parentValid))
		compParent.Compact()
		rawParent := NewStringColumn("s", slices.Clone(parentStrs), slices.Clone(parentValid))
		rawParent.Dict()
		derive := func(p *Column) *Column {
			if mode&1 == 1 {
				return p.Take(idx)
			}
			return p.Clone()
		}
		raw := NewStringColumn("s", slices.Clone(strs), valid)
		raw.Dict()
		comp := NewStringColumn("s", slices.Clone(strs), valid)
		comp.Compact()
		cols := map[string]*Column{"raw": raw, "compact": comp,
			"compact sibling": derive(compParent), "raw sibling": derive(rawParent)}
		tables := map[string]*Table{}
		for name, c := range cols {
			tables[name] = MustNewTable(c)
		}

		check := func(step int) {
			t.Helper()
			label := func(name string) string { return fmt.Sprintf("step %d %s", step, name) }
			want := dictTwoPass(strs, valid, MaxDictCardinality)
			for name, c := range cols {
				if diff := sameDict(c.Dict(), want); diff != "" {
					t.Fatalf("%s: encoding vs from scratch: %s", label(name), diff)
				}
				checkDictColumn(t, label(name), c, strs, valid)
			}
			parentWant := dictTwoPass(parentStrs, parentValid, MaxDictCardinality)
			for name, p := range map[string]*Column{"compact parent": compParent, "raw parent": rawParent} {
				checkDictColumn(t, label(name), p, parentStrs, parentValid)
				if diff := sameDict(p.Dict(), parentWant); diff != "" {
					t.Fatalf("%s: encoding vs from scratch: %s", label(name), diff)
				}
			}
		}

		check(-1)
		for step, op := range ops {
			switch op % 4 {
			case 0:
				v := fuzzValue(rng, 2*nPal)
				for _, c := range cols {
					c.AppendStr(v)
				}
				strs, valid = append(strs, v), append(valid, true)
			case 1:
				for _, c := range cols {
					c.AppendNull()
				}
				strs, valid = append(strs, ""), append(valid, false)
			default: // a batch; op 3 draws from a domain wide enough to cross the cap
				span := 2 * nPal
				if op%4 == 3 {
					span += 2 * MaxDictCardinality
				}
				k := 1 + rng.Intn(1+int(op>>2)*8)
				bs, bv := make([]string, k), make([]bool, k)
				for i := range bs {
					bs[i], bv[i] = fuzzValue(rng, span), rng.Intn(100) >= nullPct
				}
				batch := MustNewTable(NewStringColumn("s", bs, bv))
				if op&4 != 0 {
					batch.Compact()
				}
				for _, tbl := range tables {
					if err := tbl.AppendRows(batch); err != nil {
						t.Fatal(err)
					}
				}
				strs, valid = append(strs, bs...), append(valid, bv...)
			}
			// The parents grow too, often inside their domain: neither side
			// of a Take or Clone may see the other's appends.
			v := fuzzValue(rng, 2*nPal)
			compParent.AppendStr(v)
			rawParent.AppendStr(v)
			parentStrs, parentValid = append(parentStrs, v), append(parentValid, true)
			check(step)
		}
	})
}

// TestDictAppendAllocs pins the per-row append path on a built encoding: an
// in-domain AppendStr or an AppendNull allocates nothing beyond the amortised
// growth of the column's own slices, raw or compact.
func TestDictAppendAllocs(t *testing.T) {
	for _, compact := range []bool{false, true} {
		c := NewStringColumn("s", []string{"b", "a", "c", "a"}, nil)
		c.Dict()
		if compact {
			c.Compact()
		}
		if n := testing.AllocsPerRun(1000, func() { c.AppendStr("c"); c.AppendNull() }); n != 0 {
			t.Errorf("compact %v: %v allocations per append pair, want 0", compact, n)
		}
	}
}
