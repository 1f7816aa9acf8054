package query

// Table scan state. A tableCore holds the scan-side caches of ONE table —
// group indexes, predicate bitmaps, WHERE masks, integer probes and
// search-space predicate domains — and lives in the table's own
// scan-state slot (dataframe.Table.ScanState), so every executor (and every
// search space) over a table shares it and builds each entry once between
// them, and the core dies with the table.
// The core also carries the table's epoch fence, which orders appends,
// compaction and size reads (Append, Compact, MemBytes) against scans and
// search-space builds.
//
// Scans read every column in place: an int or time column is converted to
// float64 row by row where an aggregate or a range fallback reads it, so the
// core keeps no float copy of any column. Row and group ids are int32 (a
// table holds at most dataframe.MaxRows rows), 4 bytes per row of scan state.
//
// ExecutorStats make the sharing observable: SharedScanPasses counts the
// full-table passes an executor paid to build a core entry, and
// MorselsScanned the morsel segments its scans actually walked (scans run
// morsel by morsel; see morselSegments).

import (
	"sync"

	"repro/internal/dataframe"
)

// tableCore is the scan-side state of one table: every cache whose contents
// depend only on the table (not on the executor) lives here, shared by every
// executor over the table. All maps are guarded by mu; the entries themselves
// synchronise through their once.
type tableCore struct {
	t *dataframe.Table

	// Epoch fence. Scans hold fence.RLock for their whole pass; appends and
	// delta advances hold fence.Lock, so readers never observe a
	// half-appended table or half-advanced entries. epoch is the table epoch
	// the core's entries cover, guarded by fence. The maps below are guarded
	// by mu — fence orders scans against appends, mu orders entry creation
	// within a scan.
	fence sync.RWMutex
	epoch uint64

	mu      sync.Mutex
	groups  map[string]*groupEntry
	preds   map[string]*predEntry
	masks   map[string]*maskEntry
	probes  map[string]*intProbe // per-column int/time range-kernel probes (see dict.go)
	allRows []int32              // identity row list (see rowIdentity)

	spaceDims map[spaceDimKey]*spaceDimEntry // predicate value domains (see spacecache.go)
}

// coreOf returns t's core, building it in t's scan-state slot on first use.
func coreOf(t *dataframe.Table) *tableCore {
	return t.ScanState(func() any {
		// Empty caches vacuously cover the current epoch; boundedGet and the
		// per-column lookups make each map on first use.
		return &tableCore{t: t, epoch: t.Epoch()}
	}).(*tableCore)
}

// boundedGet returns m's entry for k, creating it with mk on a miss and
// dropping the whole map first when the bound is hit (in-flight holders keep
// their references). Caller must hold the lock guarding m. hit reports
// whether the entry already existed; evicted whether this lookup overflowed
// the bound.
func boundedGet[K comparable, V any](m *map[K]*V, k K, max int, mk func() *V) (ent *V, hit, evicted bool) {
	if *m == nil {
		*m = map[K]*V{}
	}
	if ent, ok := (*m)[k]; ok {
		return ent, true, false
	}
	if len(*m) >= max {
		*m = make(map[K]*V, max/4)
		evicted = true
	}
	ent = mk()
	(*m)[k] = ent
	return ent, false, evicted
}

// rowIdentity returns the core's shared 0..n-1 row list, extended to the
// table's rows on each call, so predicate-free plans scan through the same
// row-list loops as masked plans without a per-query allocation. Plans
// alias a prefix of the list, and extending it writes only past that prefix.
func (c *tableCore) rowIdentity() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	from := len(c.allRows)
	c.allRows = growTo(c.allRows, c.t.NumRows())
	for i := from; i < len(c.allRows); i++ {
		c.allRows[i] = int32(i)
	}
	return c.allRows
}

// Append appends batch to t (see dataframe.Table.AppendRows) through t's
// epoch fence and reports the table's post-append epoch and total row count,
// read under the same fence (Epoch alone is atomic; the row count is not).
// The append waits out in-flight scans by every executor over t and blocks
// new ones, so concurrent transform traffic never observes a half-appended
// table. Cache entries advance lazily when the next scan finds the core
// behind the table's epoch; back-to-back appends coalesce into one advance.
func Append(t, batch *dataframe.Table) (epoch uint64, rows int, err error) {
	c := coreOf(t)
	c.fence.Lock()
	defer c.fence.Unlock()
	err = t.AppendRows(batch)
	return t.Epoch(), t.NumRows(), err
}

// Compact switches t's eligible string columns to code-backed storage (see
// dataframe.Table.Compact) under t's epoch fence, so it never races a scan.
func Compact(t *dataframe.Table) {
	c := coreOf(t)
	c.fence.Lock()
	defer c.fence.Unlock()
	t.Compact()
}

// MemBytes returns t's resident-bytes estimate (dataframe.Table.MemBytes)
// read under t's epoch fence, so a stats reader never races an append.
func MemBytes(t *dataframe.Table) int64 {
	c := coreOf(t)
	c.fence.RLock()
	defer c.fence.RUnlock()
	b, _ := t.MemBytes()
	return b
}

// morselSegments splits a matching-row list into maximal runs that stay
// within one morsel of the table: segs[i] = [lo, hi) index range into
// rows. Scans walk the list segment by segment — the per-morsel unit at which
// they observe cancellation and count MorselsScanned — while their
// accumulators carry across segments in row order, which keeps every
// floating-point accumulation bit-identical to the flat loop (an independent
// per-morsel partial + merge would reassociate the sums).
func morselSegments(rows []int32, size int) [][2]int {
	if len(rows) == 0 {
		return nil
	}
	segs := make([][2]int, 0, len(rows)/size+1)
	start := 0
	cur := int(rows[0]) / size
	for i := 1; i < len(rows); i++ {
		if b := int(rows[i]) / size; b != cur {
			segs = append(segs, [2]int{start, i})
			start, cur = i, b
		}
	}
	return append(segs, [2]int{start, len(rows)})
}
