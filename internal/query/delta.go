package query

// One build path per cache entry. Tables are append-only mutable
// (dataframe.Table.AppendRows bumps a monotone epoch), and every cache entry
// records the rows it covers. Each entry has exactly one function that fills
// it, extending it from the rows it covers to the table's current rows: a
// cold build calls that function from row zero, and an append calls it from
// the old end. So there is one implementation of each entry's contents, and
// an advanced entry is bit-identical to a fresh build by construction — the
// differential suite and FuzzAppendMatchesOracle sweep append sizes, NULL
// densities, new-group and dictionary-crossing deltas against fresh
// executors and Query.Execute over the concatenated table.
//
//	predicate bitmap  extendPred: the kernels from the last partial word on
//	WHERE mask        extendMask: intersection from the last partial word,
//	                  matched rows appended (appendMatchedRows; int32 ids)
//	plan discovery    planEntry.discover: first-seen numbering over new rows
//	                  (int32 local slots per group)
//	aggregate state   attrState.absorb: runs and accumulators over new rows,
//	                  reading int, time and bool columns in place
//	integer probe     intProbe.extend (dict.go): bounds, validity bits
//	identity rows     tableCore.rowIdentity (core.go; int32 ids)
//	group index       dataframe.GroupIndex.Extend (int32 group ids)
//
// Every per-row id the scan state keeps — row lists, group ids, local slots,
// the join's row map — is an int32, 4 bytes per row; dataframe.MaxRows keeps
// a table within their range.
//
// Synchronisation is the table's epoch fence (tableCore.fence; the core lives
// in the table's scan-state slot, so a table has exactly one): every scan
// entry point takes it in read mode for the whole pass, appends (Append) and
// advances take it in write mode, so scans never observe a half-appended
// table or half-extended entries. A cold build runs inside its entry's once,
// under the read fence; an advance runs under the write fence. The advance is
// two-layered, matching cache ownership: the table's core (probes, group
// indexes, bitmaps and masks), then each executor's private plan and
// join entries. No entry is keyed by a dictionary code, so a delta that adds
// codes, or one that crosses the cardinality cap and drops the encoding, is
// an append like any other: the predicate kernels read the column's current
// encoding for the rows they extend over, and nothing is wiped.
//
// Extending a covered entry changes nothing, so a plan advance can extend a
// mask or group index that was evicted from its map, and a core shared by
// executors at different epochs converges correctly. Bit-identity rests on
// three invariants every extend keeps: accumulators run in matching-row
// order (never per-morsel partials), groups are numbered in first-seen order,
// and sorted runs are the unique ascending permutation of each group's
// multiset.

import (
	"context"
	"maps"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/dataframe"
)

// beginScan takes the core's epoch fence in read mode, first advancing the
// table's core and this executor's private caches if appends have landed since
// their last scan. The returned function releases the fence; every scan entry
// point runs `defer e.beginScan()()`. Internal helpers must NOT call it — the
// fence is not reentrant, and a nested read-lock behind a waiting append
// would deadlock.
func (e *Executor) beginScan() func() {
	c := e.core
	for {
		c.fence.RLock()
		if cur := c.t.Epoch(); c.epoch == cur && e.epoch == cur {
			return c.fence.RUnlock
		}
		c.fence.RUnlock()
		c.fence.Lock()
		e.advanceLocked()
		c.fence.Unlock()
	}
}

// advanceLocked brings the table's core and this executor's private caches up
// to the table's current epoch. Caller holds the core's fence in write mode.
func (e *Executor) advanceLocked() {
	c := e.core
	cur := c.t.Epoch()
	var scanned int64
	if c.epoch != cur {
		scanned += e.advanceCore()
		c.epoch = cur
	}
	apps := int64(cur - e.epoch)
	if e.epoch != cur {
		scanned += e.advancePrivate()
		e.epoch = cur
	}
	e.mu.Lock()
	e.stats.DeltaAppends += apps
	e.stats.DeltaRowsScanned += scanned
	e.mu.Unlock()
}

// advanceCore extends every core entry over the appended rows, in dependency
// order: integer probes first (predicate kernels read them), group indexes,
// then predicate bitmaps and masks. Every entry in the maps covers the rows
// of the core's last epoch, so each extend does work. Caller holds the fence
// in write mode, which excludes every reader of the core maps.
func (e *Executor) advanceCore() int64 {
	c := e.core
	var scanned int64
	for name, ip := range c.probes {
		ip.extend(c.t.Column(name))
	}
	for _, ent := range c.groups {
		if ent.err == nil {
			ent.idx.Extend()
		}
	}
	for _, ent := range c.preds {
		scanned += e.extendPred(ent)
	}
	for _, ent := range c.masks {
		scanned += e.extendMask(ent)
	}
	return scanned
}

// extendPred extends a predicate bitmap from the rows it covers to the
// table's: the kernels rewrite the last partially-filled word onward, so an
// append scans only its rows (plus at most 63 recomputed-identical
// neighbours), and a new entry evaluates from row zero. Errors are schema
// properties appends cannot change, so an errored entry stays as it is.
// Returns the rows newly covered. Caller holds the entry's once or the write
// fence.
func (e *Executor) extendPred(ent *predEntry) int64 {
	if ent.err != nil {
		return 0
	}
	n := e.core.t.NumRows()
	ent.bits = growTo(ent.bits, (n+63)/64)
	if ent.err = e.fillPredBits(ent.p, ent.nrows&^63, ent.bits); ent.err != nil {
		return 0
	}
	delta := int64(n - ent.nrows)
	ent.nrows = n
	return delta
}

// extendMask extends a WHERE mask from the rows it covers to the table's: it
// intersects the (extended) predicate bitmaps from the last partially-filled
// word onward and appends the newly matched rows to the row list in place.
// An old row's match never changes, so the cost is O(new rows), not
// O(matched rows); a new entry intersects from row zero. Plan entries alias
// only the prefix they cover and read it only under the read fence, so
// writing past it is safe. Returns the rows newly covered. Caller holds the
// entry's once or the write fence.
func (e *Executor) extendMask(ent *maskEntry) int64 {
	if ent.err != nil {
		return 0
	}
	n := e.core.t.NumRows()
	w0, words := ent.nrows>>6, (n+63)/64
	ent.bits = growTo(ent.bits, words)
	for k, p := range ent.preds {
		// predMask returns an extended bitmap: either the cached entry this
		// same advance already extended, or a new entry built at the
		// current epoch.
		pm, err := e.predMask(p)
		if err != nil {
			ent.err = err
			return 0
		}
		if k == 0 {
			copy(ent.bits[w0:], pm[w0:words])
			continue
		}
		for wi := w0; wi < words; wi++ {
			ent.bits[wi] &= pm[wi]
		}
	}
	ent.rows = appendMatchedRows(ent.rows, ent.bits, ent.nrows)
	delta := int64(n - ent.nrows)
	ent.nrows = n
	return delta
}

// appendMatchedRows appends to rows, ascending, the indices at or past from
// that mask selects. One popcount pass sizes the list, so the walk never
// reallocates.
func appendMatchedRows(rows []int32, mask []uint64, from int) []int32 {
	w0 := from >> 6
	if w0 >= len(mask) {
		return rows
	}
	head := mask[w0] &^ (1<<uint(from&63) - 1)
	cnt := bits.OnesCount64(head)
	for _, w := range mask[w0+1:] {
		cnt += bits.OnesCount64(w)
	}
	rows = slices.Grow(rows, cnt)
	for wi := w0; wi < len(mask); wi++ {
		w := mask[wi]
		if wi == w0 {
			w = head
		}
		base := wi << 6
		for w != 0 {
			rows = append(rows, int32(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return rows
}

// advancePrivate advances this executor's plan and join entries over the
// appended rows. Caller holds the fence in write mode.
func (e *Executor) advancePrivate() int64 {
	var scanned int64
	for pk, ent := range e.plans {
		d, ok := e.advancePlan(ent)
		if !ok {
			delete(e.plans, pk)
			e.planGen.Add(1)
			continue
		}
		scanned += d
	}
	for _, ent := range e.joins {
		e.advanceJoin(ent)
	}
	return scanned
}

// advancePlan extends one plan group over the appended rows: its group index
// and mask (either may have left the core maps, so the plan extends them
// itself), its discovery, then its retained aggregate states. Returns the
// rows newly covered, and false when the mask cannot be extended, so the
// entry must be dropped (rebuilt on next use). Caller holds the fence in
// write mode.
func (e *Executor) advancePlan(ent *planEntry) (int64, bool) {
	n := e.core.t.NumRows()
	ent.gi.Extend()
	if me := ent.me; me != nil {
		if me.nrows < n {
			e.extendMask(me)
		}
		if me.err != nil {
			return 0, false
		}
	}
	from := ent.nrows
	ent.discover(e)

	// Retained states extend in place: the write fence excludes every
	// reader. A half-absorbed state would be corrupt, so an advance passes
	// no deadline, and absorb cannot fail.
	var resorts int64
	for attr, st := range ent.retained() {
		k, _ := st.absorb(context.Background(), ent, e.core.t.Column(attr))
		resorts += k
	}
	if resorts > 0 {
		e.mu.Lock()
		e.stats.DirtyGroupResorts += resorts
		e.mu.Unlock()
	}
	return int64(n - from), true
}

// discover extends the plan's group discovery from the rows it covers to the
// table's: it refetches the row list (the mask's, or the identity), re-splits
// morsel segments from the last one's start (the only one new rows can
// extend), and walks the new rows through the first-seen numbering, so a new
// plan discovers from row zero and an append continues where the last
// discovery stopped, keeping every group's number. Caller holds the entry's
// once or the write fence; gi and me already cover the table.
func (pe *planEntry) discover(e *Executor) {
	from := len(pe.rows)
	if pe.me != nil {
		pe.rows = pe.me.rows
	} else {
		pe.rows = e.core.rowIdentity()
	}
	start := 0
	if k := len(pe.segs); k > 0 {
		start = pe.segs[k-1][0]
		pe.segs = pe.segs[: k-1 : k-1]
	}
	for _, sg := range morselSegments(pe.rows[start:], e.morselRows) {
		pe.segs = append(pe.segs, [2]int{sg[0] + start, sg[1] + start})
	}
	rowGID := pe.gi.RowGroups()
	local, counts := growTo(pe.local, pe.gi.NumGroups()), pe.counts
	for _, i := range pe.rows[from:] {
		gid := rowGID[i]
		li := local[gid]
		if li == 0 {
			counts = append(counts, 0)
			li = int32(len(counts))
			local[gid] = li
		}
		counts[li-1]++
	}
	pe.local, pe.counts = local, counts
	pe.nrows = e.core.t.NumRows()
}

// eachMorsel calls visit on the plan's rows from index from on, one morsel
// segment at a time, observing ctx at each segment boundary.
func (pe *planEntry) eachMorsel(ctx context.Context, from int, visit func(rows []int32)) error {
	for _, sg := range pe.segs {
		if sg[1] <= from {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		visit(pe.rows[max(sg[0], from):sg[1]])
	}
	return nil
}

// advanceJoin re-resolves the training rows that had no relevant-side match
// through the (extended) relevant index: the delta may have created their
// group. Existing matches never change — appends never renumber groups. Rows
// appended to the training table itself are not covered: joinIndex joins a
// grown training table afresh. Caller holds the fence in write mode.
func (e *Executor) advanceJoin(ent *joinEntry) {
	if ent.err != nil {
		return
	}
	rIdx, err := e.groupIndex(ent.id, ent.keys)
	if err != nil {
		ent.err = err
		return
	}
	for row, rg := range ent.rowToR {
		if rg < 0 {
			if rg, ok := rIdx.LookupRow(ent.cols, row); ok {
				ent.rowToR[row] = rg
			}
		}
	}
}

// retained returns the plan's retained aggregate state by attribute (nil if
// none): one atomic load, no lock and no copy. The map is read-only.
func (pe *planEntry) retained() map[string]*attrState {
	if m := pe.aggs.Load(); m != nil {
		return *m
	}
	return nil
}

// retain publishes freshly scanned attributes' state copy-on-write, so passes
// still reading the old map are undisturbed. A rescan replaces the
// attribute's old (narrower) state wholesale. amu orders concurrent
// publishers, which all hold the read fence.
func (pe *planEntry) retain(scanned map[string]*attrState) {
	pe.amu.Lock()
	defer pe.amu.Unlock()
	old := pe.retained()
	next := make(map[string]*attrState, len(old)+len(scanned))
	maps.Copy(next, old)
	maps.Copy(next, scanned)
	pe.aggs.Store(&next)
}

// absorb extends the state from the plan rows it covers, pe.rows[:st.rows],
// to all of pe.rows, and returns how many sorted runs it re-sorted. A scan
// absorbs a new state from row zero; an append absorbs the delta rows into a
// retained state once the plan's discovery covers them. Groups new to the
// state get runs cut from one buffer sized by their matching-row counts
// (pe.counts, an upper bound on their non-null values), so the walk appends
// in place, and an old run that outgrows its reserved end moves alone.
//
// Every accumulation runs in matching-row order, the order agg.Func.Apply
// sees over Query.Execute's per-group value lists, so results are
// bit-identical to Query.Execute's: a buffered state accumulates SUM / MIN /
// MAX over each run's new suffix (still in row order before the sort), and a
// streaming state accumulates row by row. Centered moments cannot be
// extended in place: a run that held no values yet yields them directly, and
// every other group that absorbed values restarts them in a walk over all
// the plan's rows (recenter). ctx is observed at each morsel boundary; a
// cancelled absorb leaves the state unusable, which only a scan's new state
// can meet.
//
// A numeric column is read in place by absorbNum, one body instantiated per
// storage type: float64, int64 for int and time columns, and uint8 for bool
// columns (boolBytes). Each value is converted as float64(v), the coercion
// Column.AsFloat applies, so no float copy of the column is kept.
func (st *attrState) absorb(ctx context.Context, pe *planEntry, col *dataframe.Column) (int64, error) {
	valid := col.ValidData()
	if st.useString {
		// Str reads the []string backing or decodes a compact column's codes.
		local, rowGID := pe.local, pe.gi.RowGroups()
		st.nvalid = growTo(st.nvalid, len(pe.counts))
		runs := growRuns(st.sortS, pe.counts)
		if err := pe.eachMorsel(ctx, st.rows, func(rows []int32) {
			for _, i := range rows {
				if valid[i] {
					li := local[rowGID[i]] - 1
					runs[li] = append(runs[li], col.Str(int(i)))
				}
			}
		}); err != nil {
			return 0, err
		}
		var resorts int64
		for li, run := range runs {
			if len(run) > st.nvalid[li] {
				st.nvalid[li] = len(run)
				slices.Sort(run)
				resorts++
			}
		}
		st.sortS, st.rows = runs, len(pe.rows)
		return resorts, nil
	}
	switch col.Kind() {
	case dataframe.KindFloat:
		return absorbNum(ctx, st, pe, col.FloatData(), valid)
	case dataframe.KindBool:
		return absorbNum(ctx, st, pe, boolBytes(col.BoolData()), valid)
	}
	return absorbNum(ctx, st, pe, col.IntData(), valid)
}

// boolBytes views a bool column's values as bytes in place: Go stores false
// as 0 and true as 1, so float64 of the byte is Column.AsFloat's 0/1
// coercion, and bool aggregates need no float copy either.
func boolBytes(b []bool) []uint8 {
	return unsafe.Slice((*uint8)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

// absorbNum is absorb's body for a numeric column whose values are vals (see
// absorb).
func absorbNum[T int64 | float64 | uint8](ctx context.Context, st *attrState, pe *planEntry, vals []T, valid []bool) (int64, error) {
	ngroups, from := len(pe.counts), st.rows
	local, rowGID := pe.local, pe.gi.RowGroups()
	st.nvalid = growTo(st.nvalid, ngroups)
	var resorts int64
	var need []bool // groups whose centered moments restart in a row walk
	if st.hasMoments {
		need = make([]bool, ngroups)
		st.ss = growTo(st.ss, ngroups)
		if st.hasM4 {
			st.m4 = growTo(st.m4, ngroups)
		}
	}
	if st.hasVals {
		st.sum, st.min, st.max = growTo(st.sum, ngroups), growTo(st.min, ngroups), growTo(st.max, ngroups)
	}
	if st.hasBuf {
		runs := growRuns(st.sortF, pe.counts)
		if err := pe.eachMorsel(ctx, from, func(rows []int32) {
			for _, i := range rows {
				if valid[i] {
					li := local[rowGID[i]] - 1
					runs[li] = append(runs[li], float64(vals[i]))
				}
			}
		}); err != nil {
			return 0, err
		}
		for li, run := range runs {
			nv := st.nvalid[li]
			if len(run) == nv {
				continue
			}
			st.nvalid[li] = len(run)
			if st.hasVals {
				st.accumulate(li, run[nv:], nv == 0)
			}
			switch {
			case !st.hasMoments:
			case nv == 0:
				ss, s4 := centered(run, st.sum[li]/float64(len(run)), st.hasM4)
				st.ss[li] = ss
				if st.hasM4 {
					st.m4[li] = s4
				}
			default:
				need[li] = true
			}
			slices.Sort(run)
			resorts++
		}
		st.sortF = runs
	} else {
		nvalid, sum, mn, mx := st.nvalid, st.sum, st.min, st.max
		if err := pe.eachMorsel(ctx, from, func(rows []int32) {
			for _, i := range rows {
				if !valid[i] {
					continue
				}
				li := local[rowGID[i]] - 1
				v := float64(vals[i])
				nv := nvalid[li]
				nvalid[li] = nv + 1
				sum[li] += v
				if need != nil {
					need[li] = true
				}
				if nv == 0 {
					mn[li], mx[li] = v, v
				} else {
					if v < mn[li] {
						mn[li] = v
					}
					if v > mx[li] {
						mx[li] = v
					}
				}
			}
		}); err != nil {
			return 0, err
		}
	}
	if st.hasMoments {
		if err := recenter(ctx, st, pe, vals, valid, need); err != nil {
			return 0, err
		}
	}
	st.rows = len(pe.rows)
	return resorts, nil
}

// accumulate folds a group's new values, in row order, into its running sum,
// min and max; first says the group had no values before. The loop mirrors
// agg's sum / Min / Max loops (the first-element compares are no-ops).
func (st *attrState) accumulate(li int, vals []float64, first bool) {
	s, mn, mx := st.sum[li], st.min[li], st.max[li]
	if first {
		mn, mx = vals[0], vals[0]
	}
	for _, v := range vals {
		s += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	st.sum[li], st.min[li], st.max[li] = s, mn, mx
}

// centered returns the centered second and (when m4 is set) fourth moment
// sums of vals around mean, term by term in value order, as
// agg.populationVar and agg.kurtosis compute them.
func centered(vals []float64, mean float64, m4 bool) (ss, s4 float64) {
	for _, x := range vals {
		d := x - mean
		d2 := d * d
		ss += d2
		if m4 {
			s4 += d2 * d2
		}
	}
	return ss, s4
}

// recenter restarts the centered moments of the groups in need — those that
// absorbed values and could not take their moments from their run: every
// such group of a streaming state, and the groups of a buffered state whose
// run already held values — in one walk over all the plan's rows, with the
// same expressions in the same row order as a fresh scan. It reads the
// column's values in place, as absorbNum does.
func recenter[T int64 | float64 | uint8](ctx context.Context, st *attrState, pe *planEntry, vals []T, valid []bool, need []bool) error {
	mean := make([]float64, len(need))
	walk := false
	for li, d := range need {
		if !d {
			continue
		}
		walk = true
		mean[li] = st.sum[li] / float64(st.nvalid[li])
		st.ss[li] = 0
		if st.hasM4 {
			st.m4[li] = 0
		}
	}
	if !walk {
		return nil
	}
	local, rowGID := pe.local, pe.gi.RowGroups()
	ss, m4, hasM4 := st.ss, st.m4, st.hasM4
	return pe.eachMorsel(ctx, 0, func(rows []int32) {
		for _, i := range rows {
			if !valid[i] {
				continue
			}
			li := local[rowGID[i]] - 1
			if !need[li] {
				continue
			}
			d := float64(vals[i]) - mean[li]
			d2 := d * d
			ss[li] += d2
			if hasM4 {
				m4[li] += d2 * d2
			}
		}
	})
}

// growRuns extends runs to one per group in counts, cutting the new groups'
// runs from one buffer: group li's run starts empty with capacity counts[li].
func growRuns[T any](runs [][]T, counts []int) [][]T {
	old := len(runs)
	total := 0
	for _, n := range counts[old:] {
		total += n
	}
	buf := make([]T, total)
	runs = slices.Grow(runs, len(counts)-old)
	for _, n := range counts[old:] {
		runs = append(runs, buf[:0:n])
		buf = buf[n:]
	}
	return runs
}

// growTo returns s extended with zero values to length n.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}
