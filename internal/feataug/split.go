package feataug

// Splitting one relevant table into several. The paper treats k relevant
// tables as k independent single-table searches (FitMulti); a split scenario
// (cmd/feataug's and feataugd's dataset:split=column) builds those k tables by
// partitioning one table on the values of a string column. Each part is a
// plain table holding its own copy of the rows.

import (
	"fmt"
	"slices"

	"repro/internal/dataframe"
)

// splitColumn returns t's column splitCol, which must exist and hold strings.
func splitColumn(t *dataframe.Table, splitCol string) (*dataframe.Column, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: split table", ErrNilTable)
	}
	col := t.Column(splitCol)
	if col == nil {
		return nil, fmt.Errorf("feataug: split column %q not in table (columns: %v)", splitCol, t.ColumnNames())
	}
	if col.Kind() != dataframe.KindString {
		return nil, fmt.Errorf("feataug: split column %q is %s; splitting needs a string column", splitCol, col.Kind())
	}
	return col, nil
}

// SplitValues returns the distinct non-NULL values of t's string column
// splitCol in ascending order: the part names of a fit-time split.
func SplitValues(t *dataframe.Table, splitCol string) ([]string, error) {
	col, err := splitColumn(t, splitCol)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var values []string
	for i := 0; i < col.Len(); i++ {
		if col.IsNull(i) {
			continue
		}
		// Str reads the []string backing or decodes a compact column's codes.
		if s := col.Str(i); !seen[s] {
			seen[s] = true
			values = append(values, s)
		}
	}
	slices.Sort(values)
	return values, nil
}

// SplitByValue partitions t on its string column splitCol into one part per
// listed value, keyed by the value: the part holds, in row order, the rows
// with that value, and is empty when no row has it (a fresh batch can miss a
// value seen at fit time). unmatched counts the rows in no part: NULL split
// values and values not listed.
func SplitByValue(t *dataframe.Table, splitCol string, values []string) (parts map[string]*dataframe.Table, unmatched int, err error) {
	col, err := splitColumn(t, splitCol)
	if err != nil {
		return nil, 0, err
	}
	partOf := make(map[string]int, len(values))
	for i, v := range values {
		if _, dup := partOf[v]; dup {
			return nil, 0, fmt.Errorf("feataug: split value %q listed twice", v)
		}
		partOf[v] = i
	}
	rows := make([][]int, len(values))
	for i := 0; i < col.Len(); i++ {
		if col.IsNull(i) {
			unmatched++
			continue
		}
		j, ok := partOf[col.Str(i)]
		if !ok {
			unmatched++
			continue
		}
		rows[j] = append(rows[j], i)
	}
	parts = make(map[string]*dataframe.Table, len(values))
	for j, v := range values {
		parts[v] = t.Take(rows[j])
	}
	return parts, unmatched, nil
}
