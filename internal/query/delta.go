package query

// Delta cache maintenance (PR 9). Tables are append-only mutable
// (dataframe.Table.AppendRows bumps a monotone epoch); this file teaches the
// whole cache stack to ADVANCE over just the appended rows instead of
// rebuilding, with results bit-identical to a full recompute — the
// differential suite and FuzzAppendMatchesOracle sweep append sizes, NULL
// densities, new-group and dictionary-crossing deltas against fresh
// executors and Query.Execute over the concatenated table to enforce it.
//
// Synchronisation is the table's epoch fence (tableCore.fence; the core lives
// in the table's scan-state slot, so a table has exactly one): every scan
// entry point takes it in read mode for the whole pass, appends (Append) and
// advances take it in write mode, so scans never observe a half-appended
// table or half-advanced entries. Advance is two-layered, matching cache
// ownership:
//
//	core     dictionaries re-pointed (a re-encode that shifted codes wipes
//	         the code-keyed predicate/mask maps), domain probes merged,
//	         float views extended, group indexes extended, predicate bitmaps
//	         recomputed from their last partial word, mask bitmaps/row lists
//	         re-intersected over the same tail, identity rows grown;
//	private  per-executor plan discovery extended over the delta rows, the
//	         per-plan aggregate state (attrState) advanced in row order with
//	         only dirty groups re-sorted, unmatched training rows of join
//	         entries re-resolved against the grown relevant index.
//
// Every advance helper is idempotent (entries record the rows they cover),
// so a plan advance can refresh a mask or group index that was evicted from
// its map, and a core shared by executors at different epochs converges
// correctly. Bit-identity rests on three invariants the build paths already
// hold: accumulators run in matching-row order (never per-morsel partials),
// groups are numbered in first-seen order, and sorted runs are the unique
// ascending permutation of each group's multiset.

import (
	"maps"
	"math/bits"
	"slices"

	"repro/internal/agg"
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
	var rebuilds int64
	if c.epoch != cur {
		scanned += e.advanceCore(&rebuilds)
		c.epoch = cur
	}
	apps := int64(cur - e.epoch)
	if e.epoch != cur {
		if c.shiftEpoch > e.epoch {
			// A dictionary re-encode shifted codes in the window this
			// executor missed: plan discovery (rows filtered through
			// code-keyed masks) is stale wholesale, and so is every prepared
			// partition (its plan keys hold codes). Joins survive — they key
			// on composite value strings.
			e.plans = map[planKey]*planEntry{}
			e.planGen.Add(1)
		} else {
			scanned += e.advancePrivate()
		}
		e.epoch = cur
	}
	e.mu.Lock()
	e.stats.DeltaAppends += apps
	e.stats.DeltaRowsScanned += scanned
	e.stats.FullRebuilds += rebuilds
	e.mu.Unlock()
}

// advanceCore advances every core entry over the appended rows, in
// dependency order: dictionaries first (predicate advances read codes),
// domains and views next (predicate kernels read them), group indexes, then
// predicate bitmaps, masks and the identity row list. Caller holds the fence
// in write mode, which excludes every reader of the core maps.
func (e *Executor) advanceCore(rebuilds *int64) int64 {
	c := e.core
	n := c.t.NumRows()
	var scanned int64

	// Dictionaries: Column.Dict() already absorbed stable appends in place at
	// append time; a changed pointer means a mid-domain value forced a full
	// re-encode (or crossed the cardinality cap), shifting codes. Code-keyed
	// predicate and mask entries are then stale as LOOKUP targets (key "=c5"
	// now denotes a different value), so both maps drop wholesale.
	shifted := false
	for name, ent := range c.dicts {
		col := c.t.Column(name)
		if col == nil {
			continue
		}
		if fresh := col.Dict(); fresh != ent.enc {
			ent.enc = fresh
			shifted = true
		}
	}
	if shifted {
		c.mu.Lock()
		c.preds = map[string]*predEntry{}
		c.masks = map[string]*maskEntry{}
		c.mu.Unlock()
		c.shiftEpoch = c.t.Epoch()
		*rebuilds++
	}

	for name, ent := range c.domains {
		if col := c.t.Column(name); col != nil {
			ent.advance(col)
		}
	}
	for name, ent := range c.views {
		col := c.t.Column(name)
		if col == nil || ent.vals == nil {
			continue
		}
		switch col.Kind() {
		case dataframe.KindInt, dataframe.KindTime:
			for _, x := range col.IntData()[len(ent.vals):] {
				ent.vals = append(ent.vals, float64(x))
			}
		case dataframe.KindBool:
			for _, x := range col.BoolData()[len(ent.vals):] {
				v := 0.0
				if x {
					v = 1
				}
				ent.vals = append(ent.vals, v)
			}
		}
	}
	for _, ent := range c.groups {
		if ent.err == nil && ent.idx != nil {
			ent.idx.Extend()
		}
	}
	for _, ent := range c.preds {
		scanned += e.advancePred(ent)
	}
	for _, ent := range c.masks {
		scanned += e.advanceMask(ent)
	}
	if c.allRows != nil {
		for i := len(c.allRows); i < n; i++ {
			c.allRows = append(c.allRows, i)
		}
	}
	return scanned
}

// advancePred recomputes a predicate bitmap's tail: the last partially-filled
// word onward, so only appended rows (plus at most 63 recomputed-identical
// neighbours) are scanned. Errored entries stay as they are — the error is a
// schema property appends cannot change. Idempotent; returns the rows newly
// covered. Caller holds the fence in write mode.
func (e *Executor) advancePred(ent *predEntry) int64 {
	if ent.err != nil {
		return 0
	}
	n := e.core.t.NumRows()
	if ent.nrows >= n {
		return 0
	}
	lo := ent.nrows &^ 63
	words := (n + 63) / 64
	for len(ent.bits) < words {
		ent.bits = append(ent.bits, 0)
	}
	if err := e.buildPredBitsFrom(ent.p, lo, ent.bits); err != nil {
		// Cannot happen for an entry that built cleanly (appends preserve the
		// schema); recorded for safety so the entry is never half-advanced.
		ent.err = err
		return 0
	}
	delta := int64(n - ent.nrows)
	ent.nrows = n
	return delta
}

// advanceMask re-intersects a mask's tail words from the advanced predicate
// bitmaps and appends the newly matched rows to the row list in place: an
// old row's match never changes, so only rows at or past the old coverage
// are new, and the cost is O(delta), not O(matched rows). Plan entries alias
// only the prefix they cover and read it only under the read fence, so
// writing past it is safe. Idempotent; caller holds the fence in write mode.
func (e *Executor) advanceMask(ent *maskEntry) int64 {
	if ent.err != nil {
		return 0
	}
	n := e.core.t.NumRows()
	if ent.nrows >= n {
		return 0
	}
	lo := ent.nrows &^ 63
	w0 := lo >> 6
	words := (n + 63) / 64
	for len(ent.bits) < words {
		ent.bits = append(ent.bits, 0)
	}
	first := true
	for _, p := range ent.preds {
		// predMask returns an advanced bitmap: either the cached entry this
		// same advance pass already extended, or — if the entry was evicted —
		// a fresh full build at the current epoch.
		pm, err := e.predMask(p)
		if err != nil {
			ent.err = err
			return 0
		}
		if first {
			copy(ent.bits[w0:words], pm[w0:words])
			first = false
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
// that mask selects.
func appendMatchedRows(rows []int, mask []uint64, from int) []int {
	for wi := from >> 6; wi < len(mask); wi++ {
		w := mask[wi]
		if wi == from>>6 {
			w &^= 1<<uint(from&63) - 1
		}
		base := wi << 6
		for w != 0 {
			rows = append(rows, base+bits.TrailingZeros64(w))
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

// advancePlan extends one plan group's discovery over the delta rows: refetch
// the (advanced) row list, recompute morsel segments from the last run's
// start, walk only the new rows through the first-seen discovery loop, then
// advance the plan's retained aggregate state. Returns false when the entry
// cannot be advanced and must be dropped (rebuilt on next use). Caller holds
// the fence in write mode.
func (e *Executor) advancePlan(ent *planEntry) (int64, bool) {
	if ent.err != nil {
		return 0, true // terminal; keep as-is
	}
	n := e.core.t.NumRows()
	if ent.nrows >= n {
		return 0, true
	}
	// The group index may have left the core map (eviction); extend directly.
	ent.gi.Extend()
	oldLen := len(ent.rows)
	if me := ent.me; me != nil {
		if e.advanceMask(me); me.err != nil {
			return 0, false
		}
		ent.rows = me.rows
	} else {
		ent.rows = e.core.rowIdentity()
	}
	// Bit-identity invariant: the advanced row list's prefix equals the old
	// list (appends only add rows with higher indices), so the delta is
	// exactly the suffix.
	delta := ent.rows[oldLen:]

	// Morsel segments: the last old segment may have been a partial run that
	// new rows extend, so recompute from its start (runs before it are
	// untouched by construction).
	if len(ent.segs) > 0 {
		start := ent.segs[len(ent.segs)-1][0]
		segs := ent.segs[: len(ent.segs)-1 : len(ent.segs)-1]
		for _, sg := range morselSegments(ent.rows[start:], e.morselRows) {
			segs = append(segs, [2]int{sg[0] + start, sg[1] + start})
		}
		ent.segs = segs
	} else {
		ent.segs = morselSegments(ent.rows, e.morselRows)
	}

	// Discovery delta: identical to the build loop restricted to new rows —
	// first-seen numbering continues where the build left off.
	rowGID := ent.gi.RowGroups()
	for len(ent.local) < ent.gi.NumGroups() {
		ent.local = append(ent.local, 0)
	}
	for _, i := range delta {
		gid := rowGID[i]
		li := ent.local[gid]
		if li == 0 {
			ent.counts = append(ent.counts, 0)
			li = len(ent.counts)
			ent.local[gid] = li
		}
		ent.counts[li-1]++
	}

	// Retained states advance in place: the write fence excludes every
	// reader. A state that cannot advance leaves through a copy of the map.
	var resorts int64
	aggs := ent.retained()
	var kept map[string]*attrState
	for attr, st := range aggs {
		if !st.advance(e, ent, attr, delta, &resorts) {
			if kept == nil {
				kept = maps.Clone(aggs)
			}
			delete(kept, attr)
		}
	}
	if kept != nil {
		ent.aggs.Store(&kept)
	}
	if resorts > 0 {
		e.mu.Lock()
		e.stats.DirtyGroupResorts += resorts
		e.mu.Unlock()
	}
	scanned := int64(n - ent.nrows)
	ent.nrows = n
	return scanned, true
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

// attrState is the aggregate state of one (plan group, attribute), retained
// on the plan entry after a fused scan: whatever streaming accumulators and
// per-group sorted runs the scan produced. Later batches requesting functions
// the shape covers are served without rescanning, and appends advance it over
// just the delta rows — accumulators in row order, sorted runs extended and
// re-sorted only for groups the delta touched, centered moments recomputed
// for dirty groups from the new means (they are not order-streamable). Every
// served value is bit-identical to a fresh scan's: the extraction helpers are
// shared with extractPair, the accumulator update mirrors streamScan's loop,
// and a re-sorted run is the same ascending multiset a full sort produces.
//
// The map holding these (planEntry.aggs) is immutable once published: a pass
// reads it with one atomic load, and a scan that captures new state publishes
// a copy (retain). States themselves are read-only between advances, which
// run under the write fence, excluding readers.
type attrState struct {
	useString  bool
	hasVals    bool // nvalid/sum/min/max populated
	hasMoments bool // ss populated (and m4 when hasM4)
	hasM4      bool
	hasBuf     bool // sorted per-group runs populated

	nvalid        []int
	sum, min, max []float64
	ss, m4        []float64
	sortF         [][]float64 // per-group ascending non-null values (numeric)
	sortS         [][]string  // per-group ascending non-null values (string)
}

// serves reports whether the state's shape covers fn without a rescan.
func (st *attrState) serves(fn agg.Func) bool {
	if st.useString {
		// Functions a string column cannot serve resolve upstream (all-NULL
		// direct results); everything else reads the sorted runs.
		return st.hasBuf
	}
	if streamable(fn) {
		switch {
		case !st.hasVals:
			return false
		case needsMoments(fn) && !st.hasMoments:
			return false
		case fn == agg.Kurtosis && !st.hasM4:
			return false
		}
		return true
	}
	return st.hasBuf
}

func (st *attrState) servesAll(fns []agg.Func) bool {
	for _, fn := range fns {
		if !st.serves(fn) {
			return false
		}
	}
	return true
}

// extract serves one function from the retained state for the touched local
// groups, writing group touched[t]'s result to vals[t] and valid[t], through
// the same helpers the scan path's extractPair uses — expression-identical,
// so served values match a fresh scan bit for bit.
func (st *attrState) extract(fn agg.Func, counts []int, touched []int, vals []float64, valid []bool) {
	if !st.useString && streamable(fn) {
		streamExtract(fn, st.nvalid, st.sum, st.min, st.max, st.ss, st.m4, touched, vals, valid)
		return
	}
	var devbuf []float64
	for t, li := range touched {
		if st.useString {
			vals[t], valid[t] = sortedStringAgg(fn, st.sortS[li], counts[li])
		} else {
			vals[t], valid[t] = sortedFloatAgg(fn, &devbuf, st.sortF[li], counts[li])
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

// retain captures freshly scanned attributes' state and publishes it
// copy-on-write, so passes still reading the old map are undisturbed. A
// rescan replaces the attribute's old (narrower) state wholesale. amu orders
// concurrent publishers, which all hold the read fence.
func (pe *planEntry) retain(scanned []*attrScan) {
	pe.amu.Lock()
	defer pe.amu.Unlock()
	old := pe.retained()
	next := make(map[string]*attrState, len(old)+len(scanned))
	maps.Copy(next, old)
	for _, as := range scanned {
		next[as.col.Name()] = captureAttrState(as, len(pe.counts))
	}
	pe.aggs.Store(&next)
}

// captureAttrState snapshots an attrScan's post-scan accumulators and sorted
// runs as retained state. Buffer segments are captured as three-index views
// (capacity clipped to the segment end) so a later advance APPENDS into fresh
// arrays instead of clobbering the neighbouring group's segment.
func captureAttrState(as *attrScan, ngroups int) *attrState {
	st := &attrState{useString: as.useString}
	if as.useString {
		st.hasBuf = true
		st.sortS = make([][]string, ngroups)
		for li := range st.sortS {
			st.sortS[li] = as.sbuf[as.offs[li]:as.fill[li]:as.fill[li]]
		}
		return st
	}
	st.nvalid = as.nvalid
	st.hasVals = as.needVals
	st.sum, st.min, st.max = as.sum, as.min, as.max
	st.hasMoments = as.needMoments
	st.hasM4 = as.needM4
	st.ss, st.m4 = as.ss, as.m4
	if as.needBuf {
		st.hasBuf = true
		st.sortF = make([][]float64, ngroups)
		for li := range st.sortF {
			st.sortF[li] = as.fbuf[as.offs[li]:as.fill[li]:as.fill[li]]
		}
	}
	return st
}

// advance absorbs the plan group's delta rows into the state: streaming
// accumulators update in row order (the exact association a full scan uses),
// sorted runs append and re-sort only dirty groups, and the centered moments
// of dirty groups recompute from the new means over the group's full row set
// (mean-centered sums cannot be extended in place). Returns false when the
// state's shape cannot be advanced — the caller drops it and the next batch
// rebuilds by scanning. resorts accumulates DirtyGroupResorts. Caller holds
// the fence in write mode; pe's discovery has already been advanced.
func (st *attrState) advance(e *Executor, pe *planEntry, attr string, delta []int, resorts *int64) bool {
	if st.hasMoments && !st.hasVals {
		return false // never produced by capture; defensive
	}
	col := e.core.t.Column(attr)
	if col == nil {
		return false
	}
	ngroups := len(pe.counts)
	local, rowGID := pe.local, pe.gi.RowGroups()
	valid := col.ValidData()

	if st.useString {
		for len(st.sortS) < ngroups {
			st.sortS = append(st.sortS, nil)
		}
		// Str reads the []string backing or decodes a compact column's codes.
		dirty := make([]bool, ngroups)
		nd := 0
		for _, i := range delta {
			if !valid[i] {
				continue
			}
			li := local[rowGID[i]] - 1
			st.sortS[li] = append(st.sortS[li], col.Str(i))
			dirty[li] = true
		}
		for li, d := range dirty {
			if d {
				slices.Sort(st.sortS[li])
				nd++
			}
		}
		*resorts += int64(nd)
		return true
	}

	for len(st.nvalid) < ngroups {
		st.nvalid = append(st.nvalid, 0)
	}
	grow := func(s []float64) []float64 {
		for len(s) < ngroups {
			s = append(s, 0)
		}
		return s
	}
	if st.hasVals {
		st.sum, st.min, st.max = grow(st.sum), grow(st.min), grow(st.max)
	}
	if st.hasMoments {
		st.ss = grow(st.ss)
		if st.hasM4 {
			st.m4 = grow(st.m4)
		}
	}
	if st.hasBuf {
		for len(st.sortF) < ngroups {
			st.sortF = append(st.sortF, nil)
		}
	}
	// Only sorted runs and centered moments revisit dirty groups; a
	// streaming-only state advances in O(delta), without per-group flags.
	var dirty []bool
	if st.hasBuf || st.hasMoments {
		dirty = make([]bool, ngroups)
	}
	fv := e.floatView(col)
	for _, i := range delta {
		if !valid[i] {
			continue
		}
		li := local[rowGID[i]] - 1
		v := fv[i]
		nv := st.nvalid[li]
		st.nvalid[li] = nv + 1
		if st.hasVals {
			st.sum[li] += v
			if nv == 0 {
				st.min[li], st.max[li] = v, v
			} else {
				if v < st.min[li] {
					st.min[li] = v
				}
				if v > st.max[li] {
					st.max[li] = v
				}
			}
		}
		if st.hasBuf {
			st.sortF[li] = append(st.sortF[li], v)
		}
		if dirty != nil {
			dirty[li] = true
		}
	}

	if st.hasMoments && slices.Contains(dirty, true) {
		// Centered moments restart for dirty groups: zero them, derive the new
		// means, then one pass over the plan's rows accumulating only dirty
		// groups — the same expression, in the same row order, as the scan.
		mean := make([]float64, ngroups)
		for li, d := range dirty {
			if !d {
				continue
			}
			st.ss[li] = 0
			if st.hasM4 {
				st.m4[li] = 0
			}
			if nv := st.nvalid[li]; nv > 0 {
				mean[li] = st.sum[li] / float64(nv)
			}
		}
		for _, sg := range pe.segs {
			for _, i := range pe.rows[sg[0]:sg[1]] {
				if !valid[i] {
					continue
				}
				li := local[rowGID[i]] - 1
				if !dirty[li] {
					continue
				}
				d := fv[i] - mean[li]
				d2 := d * d
				st.ss[li] += d2
				if st.hasM4 {
					st.m4[li] += d2 * d2
				}
			}
		}
	}
	if st.hasBuf {
		nd := int64(0)
		for li, d := range dirty {
			if d {
				slices.Sort(st.sortF[li])
				nd++
			}
		}
		*resorts += nd
	}
	return true
}
