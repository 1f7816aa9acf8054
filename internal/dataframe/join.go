package dataframe

import "fmt"

// LeftJoin joins t with right on equal composite key values
// (leftOn[i] == rightOn[i] for all i), LEFT OUTER semantics: every left row
// appears exactly once; right columns are NULL on miss. When a right key
// occurs multiple times only the first match is used (the query executor
// always joins against aggregated tables whose keys are unique, matching the
// paper's `D LEFT JOIN q(R) ON D.k = q(R).k`).
//
// Right key columns are omitted from the output. Right non-key columns that
// collide with a left name get a "_r" suffix.
func (t *Table) LeftJoin(right *Table, leftOn, rightOn []string) (*Table, error) {
	if len(leftOn) != len(rightOn) || len(leftOn) == 0 {
		return nil, fmt.Errorf("dataframe: join key lists must be equal-length and non-empty")
	}
	lcols, err := t.resolveColumns(leftOn)
	if err != nil {
		return nil, err
	}
	rcols, err := right.resolveColumns(rightOn)
	if err != nil {
		return nil, err
	}
	// Hash the right side: key -> first row.
	lookup := make(map[string]int, right.nrows)
	for i := 0; i < right.nrows; i++ {
		k := right.RowKey(i, rcols)
		if _, ok := lookup[k]; !ok {
			lookup[k] = i
		}
	}
	// Map each left row to a right row (-1 on miss).
	match := make([]int, t.nrows)
	for i := 0; i < t.nrows; i++ {
		if r, ok := lookup[t.RowKey(i, lcols)]; ok {
			match[i] = r
		} else {
			match[i] = -1
		}
	}
	out := &Table{index: map[string]int{}}
	for _, c := range t.cols {
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	rightKeySet := map[string]bool{}
	for _, n := range rightOn {
		rightKeySet[n] = true
	}
	for _, rc := range right.cols {
		if rightKeySet[rc.name] {
			continue
		}
		name := rc.name
		if out.HasColumn(name) {
			name += "_r"
		}
		if err := out.AddColumn(takeWithMisses(rc, match).Rename(name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// takeWithMisses is Take but a -1 index yields NULL.
func takeWithMisses(c *Column, idx []int) *Column {
	out := &Column{name: c.name, kind: c.kind, valid: make([]bool, len(idx))}
	switch c.kind {
	case KindInt, KindTime:
		out.ints = make([]int64, len(idx))
	case KindFloat:
		out.floats = make([]float64, len(idx))
	case KindString:
		out.strs = make([]string, len(idx))
		out.dict = &dictLazy{}
	case KindBool:
		out.bools = make([]bool, len(idx))
	}
	for j, i := range idx {
		if i < 0 {
			continue // stays NULL / zero
		}
		out.valid[j] = c.valid[i]
		switch c.kind {
		case KindInt, KindTime:
			out.ints[j] = c.ints[i]
		case KindFloat:
			out.floats[j] = c.floats[i]
		case KindString:
			out.strs[j] = c.strAt(i)
		case KindBool:
			out.bools[j] = c.bools[i]
		}
	}
	return out
}
