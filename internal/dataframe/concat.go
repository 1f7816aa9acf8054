package dataframe

import "fmt"

// Concat vertically stacks tables with identical schemas (same column names
// and kinds, in any order; the first table's order wins). Each output column
// is a clone of the first table's column with the other tables' rows appended
// one by one, so a compact first input gives a compact output below the
// dictionary cap.
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
		acc := c.Clone()
		for _, t := range tables[1:] {
			src := t.Column(c.name)
			if src == nil {
				return nil, fmt.Errorf("dataframe: concat: table missing column %q", c.name)
			}
			if src.kind != c.kind {
				return nil, fmt.Errorf("dataframe: concat: column %q kind mismatch (%s vs %s)", c.name, src.kind, c.kind)
			}
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
		if err := out.AddColumn(acc); err != nil {
			return nil, err
		}
	}
	return out, nil
}
