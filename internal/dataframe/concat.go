package dataframe

import "fmt"

// Concat vertically stacks tables with identical schemas (same column names
// and kinds, in any order; the first table's order wins). String columns whose
// inputs all carry a built dictionary over the SAME domain splice their code
// arrays directly instead of re-encoding row by row (see spliceStringColumns);
// unequal domains fall back to the generic append loop.
func Concat(tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("dataframe: concat of nothing")
	}
	first := tables[0]
	for _, t := range tables[1:] {
		if t.NumCols() != first.NumCols() {
			return nil, fmt.Errorf("dataframe: concat: column count mismatch (%d vs %d)", t.NumCols(), first.NumCols())
		}
	}
	out := &Table{index: map[string]int{}}
	for _, c := range first.cols {
		srcs := make([]*Column, 1, len(tables))
		srcs[0] = c
		for _, t := range tables[1:] {
			src := t.Column(c.name)
			if src == nil {
				return nil, fmt.Errorf("dataframe: concat: table missing column %q", c.name)
			}
			if src.kind != c.kind {
				return nil, fmt.Errorf("dataframe: concat: column %q kind mismatch (%s vs %s)", c.name, src.kind, c.kind)
			}
			srcs = append(srcs, src)
		}
		var acc *Column
		if c.kind == KindString {
			acc = spliceStringColumns(srcs)
		}
		if acc == nil {
			acc = c.Clone()
			for _, src := range srcs[1:] {
				for i := 0; i < src.Len(); i++ {
					if src.IsNull(i) {
						acc.AppendNull()
						continue
					}
					switch src.kind {
					case KindInt, KindTime:
						acc.AppendInt(src.ints[i])
					case KindFloat:
						acc.AppendFloat(src.floats[i])
					case KindString:
						acc.AppendStr(src.strAt(i))
					case KindBool:
						acc.AppendBool(src.bools[i])
					}
				}
			}
		}
		if err := out.AddColumn(acc); err != nil {
			return nil, err
		}
	}
	return out, nil
}
