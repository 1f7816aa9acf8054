package dataframe

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Table is an ordered collection of equally sized columns.
type Table struct {
	cols  []*Column
	index map[string]int
	nrows int

	// epoch counts completed append batches (AppendRows).
	epoch atomic.Uint64

	// scan is the table's scan-state slot (ScanState), set once.
	scanOnce sync.Once
	scan     any
}

// MaxRows is the most rows a table may hold. The scan state over a table
// indexes its rows and groups with int32 (GroupIndex and the query layer's
// row lists), so a table refuses to grow past it before any id can wrap.
const MaxRows = math.MaxInt32

// checkRows fails when a table of have rows taking add more would pass
// MaxRows. It is the one row-limit check: every table build (AddColumn, and
// Take, which panics on it) and every append (AppendRows, and so
// query.Append) runs it before mutating.
func checkRows(have, add int) error {
	if add > MaxRows-have {
		return fmt.Errorf("dataframe: %d rows plus %d pass the %d-row table limit", have, add, MaxRows)
	}
	return nil
}

// NewTable builds a table from columns, which must share a length and have
// distinct names.
func NewTable(cols ...*Column) (*Table, error) {
	t := &Table{index: map[string]int{}}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustNewTable is NewTable but panics on error; intended for tests and
// generators with statically correct shapes.
func MustNewTable(cols ...*Column) *Table {
	t, err := NewTable(cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the column list in declaration order. The slice is shared;
// callers must not mutate it.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.name
	}
	return names
}

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column {
	if i, ok := t.index[name]; ok {
		return t.cols[i]
	}
	return nil
}

// HasColumn reports whether a column with the given name exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.index[name]
	return ok
}

// AddColumn appends a column. It fails on duplicate names, row-count
// mismatches (except when the table is empty) and columns over MaxRows.
func (t *Table) AddColumn(c *Column) error {
	if _, ok := t.index[c.name]; ok {
		return fmt.Errorf("dataframe: duplicate column %q", c.name)
	}
	if len(t.cols) > 0 && c.Len() != t.nrows {
		return fmt.Errorf("dataframe: column %q has %d rows, table has %d", c.name, c.Len(), t.nrows)
	}
	if len(t.cols) == 0 {
		if err := checkRows(0, c.Len()); err != nil {
			return err
		}
		t.nrows = c.Len()
	}
	t.index[c.name] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// ScanState returns the table's scan-state slot, setting it to mk() on the
// first call; every later call returns that value and ignores mk. The slot is
// opaque to this package: the query layer keeps the table's scan caches and
// their epoch fence there, so they live and die with the table. Derived
// tables (Take, Clone, Concat, SelectColumns, ...) start with an empty slot.
// Safe for concurrent use.
func (t *Table) ScanState(mk func() any) any {
	t.scanOnce.Do(func() { t.scan = mk() })
	return t.scan
}

// Epoch returns the table's append epoch: 0 at construction, +1 per
// AppendRows batch. It versions the table's grow-only content, so a cache
// built at an earlier epoch can tell whether rows have landed since and
// advance over just the appended suffix. Safe for concurrent use.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// AppendRows appends every row of batch to the table and bumps the epoch.
// The batch must carry exactly the table's columns by name and kind (any
// order); extra or missing columns, or a batch that would take the table
// past MaxRows, fail without mutating the table. Existing rows keep their
// positions and values — columns grow by a stable prefix — so caches built
// at an earlier epoch remain valid over the rows they saw and only need to
// scan the appended suffix.
//
// Appends are mutations: the caller must hold exclusive access to the table
// (no scans in flight), the same contract as the per-value Append* methods.
// Query-layer consumers append through query.Append, which holds the
// table's epoch fence, instead of calling this directly. Tables sharing
// columns with a larger table (SelectColumns views) must not be appended
// through.
func (t *Table) AppendRows(batch *Table) error {
	src := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		bc := batch.Column(c.name)
		if bc == nil {
			return fmt.Errorf("dataframe: append batch is missing column %q", c.name)
		}
		if bc.kind != c.kind {
			return fmt.Errorf("dataframe: append batch column %q is %s, table has %s", c.name, bc.kind, c.kind)
		}
		src[i] = bc
	}
	if batch.NumCols() != len(t.cols) {
		return fmt.Errorf("dataframe: append batch has %d columns, table has %d", batch.NumCols(), len(t.cols))
	}
	if batch.NumRows() == 0 {
		return nil
	}
	if err := checkRows(t.nrows, batch.NumRows()); err != nil {
		return err
	}
	for i, c := range t.cols {
		c.appendFrom(src[i])
	}
	t.recordEpoch(batch.NumRows())
	return nil
}

// recordEpoch counts rows newly appended rows and bumps the epoch.
func (t *Table) recordEpoch(rows int) {
	t.nrows += rows
	t.epoch.Add(1)
}

// AddFloatColumnsFlat appends len(names) float columns backed by one flat
// column-major buffer: column j is vals[j*n : (j+1)*n] with validity
// valid[j*n : (j+1)*n], where n is the table's row count. The buffers are
// adopted, not copied (the bulk counterpart of AddColumn + NewFloatColumn for
// columnar batch outputs such as a feature matrix): NaN values are marked
// null in place, and callers must not reuse the buffers afterwards. On an
// empty table the row count is inferred from len(vals)/len(names).
func (t *Table) AddFloatColumnsFlat(names []string, vals []float64, valid []bool) error {
	n := t.nrows
	if len(t.cols) == 0 && len(names) > 0 {
		n = len(vals) / len(names)
	}
	if len(vals) != n*len(names) || len(valid) != n*len(names) {
		return fmt.Errorf("dataframe: flat buffer holds %d values, want %d columns x %d rows",
			len(vals), len(names), n)
	}
	for j, name := range names {
		v := vals[j*n : (j+1)*n : (j+1)*n]
		ok := valid[j*n : (j+1)*n : (j+1)*n]
		for i, x := range v {
			if math.IsNaN(x) {
				ok[i] = false
			}
		}
		if err := t.AddColumn(&Column{name: name, kind: KindFloat, floats: v, valid: ok}); err != nil {
			return err
		}
	}
	return nil
}

// DropColumn removes the named column; it is a no-op when absent.
func (t *Table) DropColumn(name string) {
	i, ok := t.index[name]
	if !ok {
		return
	}
	t.cols = append(t.cols[:i], t.cols[i+1:]...)
	delete(t.index, name)
	for j := i; j < len(t.cols); j++ {
		t.index[t.cols[j].name] = j
	}
	if len(t.cols) == 0 {
		t.nrows = 0
	}
}

// SelectColumns returns a new table sharing the named columns.
func (t *Table) SelectColumns(names ...string) (*Table, error) {
	out := &Table{index: map[string]int{}}
	for _, n := range names {
		c := t.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Take returns a new table containing the rows listed in idx, in order. It
// panics when idx lists more than MaxRows rows.
func (t *Table) Take(idx []int) *Table {
	if err := checkRows(0, len(idx)); err != nil {
		panic("dataframe: Take: " + err.Error())
	}
	out := &Table{index: map[string]int{}, nrows: len(idx)}
	for _, c := range t.cols {
		taken := c.Take(idx)
		out.index[taken.name] = len(out.cols)
		out.cols = append(out.cols, taken)
	}
	return out
}

// Filter returns the rows for which keep returns true.
func (t *Table) Filter(keep func(row int) bool) *Table {
	var idx []int
	for i := 0; i < t.nrows; i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	return t.Take(idx)
}

// FilterMask returns the rows where mask[i] is true. The mask length must
// equal the row count. It is kept as the differential tests' naive reference.
func (t *Table) FilterMask(mask []bool) *Table {
	idx := make([]int, 0, len(mask))
	for i, m := range mask {
		if m {
			idx = append(idx, i)
		}
	}
	return t.Take(idx)
}

// Head returns the first n rows (or fewer).
func (t *Table) Head(n int) *Table {
	if n > t.nrows {
		n = t.nrows
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return t.Take(idx)
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{index: map[string]int{}, nrows: t.nrows}
	for _, c := range t.cols {
		cc := c.Clone()
		out.index[cc.name] = len(out.cols)
		out.cols = append(out.cols, cc)
	}
	return out
}

// RowKey builds the composite group/join key for a row over the given
// columns.
func (t *Table) RowKey(row int, cols []*Column) string {
	return string(appendRowKey(nil, row, cols))
}

// appendRowKey is RowKey into a reusable buffer, for hot grouping loops.
func appendRowKey(b []byte, row int, cols []*Column) []byte {
	for j, c := range cols {
		if j > 0 {
			b = append(b, '\x1f')
		}
		b = c.AppendKey(b, row)
	}
	return b
}

// resolveColumns maps names to columns, failing on the first unknown name.
func (t *Table) resolveColumns(names []string) ([]*Column, error) {
	cols := make([]*Column, len(names))
	for i, n := range names {
		c := t.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		cols[i] = c
	}
	return cols, nil
}

// String renders up to 10 rows for debugging.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.ColumnNames(), "\t"))
	sb.WriteByte('\n')
	n := t.nrows
	if n > 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		for j, c := range t.cols {
			if j > 0 {
				sb.WriteByte('\t')
			}
			if c.IsNull(i) {
				sb.WriteString("NULL")
			} else {
				fmt.Fprintf(&sb, "%v", c.Value(i))
			}
		}
		sb.WriteByte('\n')
	}
	if t.nrows > n {
		fmt.Fprintf(&sb, "... (%d rows)\n", t.nrows)
	}
	return sb.String()
}
