package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataframe"
)

// tableDigest hashes every column of t in order: its name and kind, then
// each row's validity and raw value (float bits, so -0, +0 and NaN payloads
// are told apart; the stored value at NULL rows counts too).
func tableDigest(t *dataframe.Table) string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, c := range t.Columns() {
		str(c.Name())
		str(c.Kind().String())
		word(uint64(c.Len()))
		for i := 0; i < c.Len(); i++ {
			if !c.IsNull(i) {
				word(1)
			} else {
				word(0)
			}
			switch c.Kind() {
			case dataframe.KindInt, dataframe.KindTime:
				word(uint64(c.Int(i)))
			case dataframe.KindFloat:
				word(math.Float64bits(c.Float(i)))
			case dataframe.KindString:
				str(c.Str(i))
			case dataframe.KindBool:
				if c.Bool(i) {
					word(1)
				} else {
					word(0)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGeneratorsPinned pins every generator's train and relevant tables,
// column by column, at two seeds, so a change to a generator's random draw
// order or to the values it draws fails here, while one that only changes
// how its columns are allocated passes.
func TestGeneratorsPinned(t *testing.T) {
	gens := map[string]Generator{
		"clickstream": func(o Options) *Dataset { return NewClickstream(o).Dataset },
	}
	for _, name := range []string{"tmall", "instacart", "student", "merchant", "covtype", "household", "stringheavy"} {
		gen, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gens[name] = gen
	}
	want := map[string]string{
		"clickstream/1/relevant": "7253fc93edb342ea",
		"clickstream/1/train":    "ae257ca13373518b",
		"clickstream/7/relevant": "fd3f251ec0965245",
		"clickstream/7/train":    "795ad40f0458c28f",
		"covtype/1/relevant":     "19c2a7b9f8801c3b",
		"covtype/1/train":        "10dc56bee0f9a07e",
		"covtype/7/relevant":     "d2a908555ed82323",
		"covtype/7/train":        "546019a2172908ef",
		"household/1/relevant":   "4edae4a1492382ce",
		"household/1/train":      "7c40bd4f84754058",
		"household/7/relevant":   "bf2abea1f89ca635",
		"household/7/train":      "4d0ff11bece9154e",
		"instacart/1/relevant":   "af6e233abe22ec37",
		"instacart/1/train":      "bf9151b552095e53",
		"instacart/7/relevant":   "b3f7e86af4fb40f8",
		"instacart/7/train":      "d136ab289e37f91f",
		"merchant/1/relevant":    "67bbf9ac56bcc589",
		"merchant/1/train":       "7d5850a4ecc625de",
		"merchant/7/relevant":    "441ca18b50b617ab",
		"merchant/7/train":       "e03675827277226f",
		"stringheavy/1/relevant": "e9c6c62d3e0d707e",
		"stringheavy/1/train":    "671fa990284c8575",
		"stringheavy/7/relevant": "0ff8d308bfc4a704",
		"stringheavy/7/train":    "e7ee863d7c4bd26b",
		"student/1/relevant":     "dbc4f25b5ab38c54",
		"student/1/train":        "cc9496f6899310f4",
		"student/7/relevant":     "4e9246e02ff3188b",
		"student/7/train":        "8f406285378e47b7",
		"tmall/1/relevant":       "3de6c54e2ca2adcb",
		"tmall/1/train":          "588340bdeef50350",
		"tmall/7/relevant":       "e5796d738e4a230a",
		"tmall/7/train":          "d6b7646818b90f3c",
	}
	for name, gen := range gens {
		for _, seed := range []int64{1, 7} {
			d := gen(Options{TrainRows: 150, Seed: seed})
			for _, side := range []struct {
				which string
				tab   *dataframe.Table
			}{{"train", d.Train}, {"relevant", d.Relevant}} {
				key := fmt.Sprintf("%s/%d/%s", name, seed, side.which)
				got := tableDigest(side.tab)
				if w, ok := want[key]; !ok {
					t.Errorf("%s: no pinned digest (got %q)", key, got)
				} else if got != w {
					t.Errorf("%s: digest %s, want %s", key, got, w)
				}
			}
		}
	}
}
