package query

// The fused shared-scan batch path. A batch of candidate queries — the shape
// every search procedure in this repo produces — is near-degenerate: the same
// GROUP BY keys, predicates drawn from small discrete pools, agg functions
// swept over a handful of attributes. Executing each query independently pays
// a full two-pass table scan per query even when only a few distinct WHERE
// masks exist in the whole batch.
//
// This file collapses that: the batch is grouped by plan group — one
// (key-set, canonical WHERE-mask signature) pair — and each plan group runs a
// constant number of shared scans that feed ALL of its (aggAttr, aggFunc)
// pairs at once:
//
//	discovery  non-empty groups under the mask (cached across batches)
//	pass A     per-attribute streaming accumulators (non-null count, sum,
//	           min, max) plus, for the order-statistics aggregates, flat
//	           per-group value buffers sorted once and shared — serving
//	           COUNT / SUM / MIN / MAX / AVG directly and MEDIAN / MAD /
//	           MODE / ENTROPY / COUNT_DISTINCT from the sorted runs
//	pass B     centered second/fourth moments from pass A's means — serving
//	           the VAR / STD families and KURTOSIS (only when requested)
//
// An attribute's passes fill one attrState through its one builder, absorb
// (every group's run sorted by slices.Sort, whatever the domain; see
// delta.go), and every pair is extracted from an attrState, whether the pass
// scanned it or found it retained.
//
// A 200-query rung with 20 distinct masks therefore costs a few scans per
// mask instead of two per query, and every accumulation runs in the exact
// matching-row (or sorted-distinct) order Query.Execute uses, so results are
// bit-identical to it (the differential tests enforce this). A single query
// is a batch of one: its plan group's discovery and retained attribute state
// serve every later query — single or batched — on the same group.
//
// Every batch is prepared, then run (Executor.Prepare, Prepared). The first
// pass of a Prepared partitions the batch into plan groups, derives each
// group's planKey once, resolves each group's planEntry, and lays each group
// out: its deduplicated pairs grouped by attribute, in slices rather than
// maps; the COUNT pairs and the undefined string-aggregate pairs routed up
// front; each pair's range in a pass's result slab and its FeatureMatrix
// slots; and the batch's distinct key sets, with each group's key set. The
// partition, layouts and entries are published as one immutable snapshot
// stamped with the executor's plan generation. Later passes reuse the
// snapshot while its stamp is current, so a served plan's passes skip the
// WHERE-signature derivation, the group-index, mask and plan lookups and the
// per-pass organisation altogether. A warm augment joins each key set once,
// then per plan group resolves the touched groups, extracts every pair from
// the plan's retained state (one atomic load, no lock, no copy) straight into
// the slab and scatters: with its working set in pooled scratch, it allocates
// only its join entries and its output. The layout names attributes, never
// column data: appends and Compact can replace a *Column, its value slice or
// its code slice, so only the scan branch resolves them, per pass.
//
// The plan generation rises whenever an entry leaves the executor's plan map
// (a whole-map drop at the bound, an entry that cannot be advanced); a pass
// that finds a stale stamp resolves its plan entries again, and rebuilds the
// layout with them. A held entry stays valid while its stamp is current
// because appends — a dictionary cap crossing included, since no key holds a
// code — advance every entry of the plan map in place, under the write
// fence that each pass excludes by holding the read side. The one-shot Executor.AugmentMatrix, and everything riding it,
// is a Prepare followed by one pass.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/par"
)

// aggPair is one (aggregation attribute, aggregation function) pair of a plan
// group — the unit of work the shared scans feed.
type aggPair struct {
	attr string
	fn   agg.Func
}

// fusedGroup is one plan group of a prepared batch with its static layout:
// which queries landed in it, which deduplicated agg pairs they need, and how
// a pass routes those pairs. Everything but pe is fixed by the batch and the
// table's schema, so it is built once per snapshot (groupBatch) and read-only
// once published. The layout names attributes, never columns: appends and
// Compact can replace a column's storage, so only the scan branch resolves
// columns, per pass.
type fusedGroup struct {
	pk     planKey
	pe     *planEntry // set by the pass that resolves the snapshot
	keySet int        // the group's key set in the snapshot's keySets
	rep    Query      // representative query (first): predicates, error context

	// order lists the deduped pairs in first-seen order; pair pi's results
	// sit at [pi*nt, (pi+1)*nt) of a pass's result slab (nt touched groups),
	// and slots[pi] names the batch slots (FeatureMatrix columns) it serves.
	order []aggPair
	slots [][]int
	// Pairs routed up front: COUNT pairs read the plan's group counts,
	// numeric aggregates over a string attribute are all-NULL, and the rest
	// read their attribute's retained state or a fresh scan.
	counts []int
	nulls  []int
	attrs  []attrPairs

	nqueries int // batch slots the group serves (FusedQueries per pass)
	ncount   int // of which COUNT queries (CountOnlyQueries per pass)
}

// attrPairs is the pairs of a plan group that read one aggregation
// attribute: its name and, in first-seen order, each pair's function and
// index in the group's order.
type attrPairs struct {
	name  string
	fns   []agg.Func
	pairs []int
}

// keySet is one distinct GROUP BY key-set of a prepared batch: the join
// map's key (the names joined by \x1f), an owned copy of the names, and the
// first query on it, for error context.
type keySet struct {
	id   string
	keys []string
	rep  Query
}

// groupBatch partitions a batch by plan group — one (key-set, canonical
// WHERE-mask signature) pair — deduplicating agg pairs within each group, and
// lays each group out (see fusedGroup). It also lists the batch's distinct
// key sets, in first-seen order. Signatures come from the executor's
// kind-aware predKey, matching the plan cache's identity exactly. Caller
// holds the read fence.
func (e *Executor) groupBatch(qs []Query) ([]*fusedGroup, []keySet) {
	type groupPair struct {
		g    *fusedGroup
		pair aggPair
	}
	groups := map[planKey]*fusedGroup{}
	pairAt := map[groupPair]int{}
	setAt := map[string]int{}
	var order []*fusedGroup
	var sets []keySet
	for i, q := range qs {
		pk := planKey{keys: strings.Join(q.Keys, "\x1f"), sig: e.maskSig(q.Preds)}
		g, ok := groups[pk]
		if !ok {
			ks, ok := setAt[pk.keys]
			if !ok {
				ks = len(sets)
				setAt[pk.keys] = ks
				sets = append(sets, keySet{id: pk.keys, keys: slices.Clone(q.Keys), rep: q})
			}
			g = &fusedGroup{pk: pk, keySet: ks, rep: q}
			groups[pk] = g
			order = append(order, g)
		}
		gp := groupPair{g, aggPair{attr: q.AggAttr, fn: q.Agg}}
		pi, seen := pairAt[gp]
		if !seen {
			pi = len(g.order)
			pairAt[gp] = pi
			g.order = append(g.order, gp.pair)
			g.slots = append(g.slots, nil)
		}
		g.slots[pi] = append(g.slots[pi], i)
	}
	for _, g := range order {
		attrAt := map[string]int{}
		for pi, pair := range g.order {
			g.nqueries += len(g.slots[pi])
			switch {
			case e.core.t.Column(pair.attr).Kind() == dataframe.KindString && !pair.fn.SupportsStrings():
				// A numeric aggregate over a categorical attribute is
				// undefined: an all-NULL feature, no scan work.
				g.nulls = append(g.nulls, pi)
			case pair.fn == agg.Count:
				// COUNT depends only on the (cached) per-group row counts.
				g.counts = append(g.counts, pi)
				g.ncount += len(g.slots[pi])
			default:
				ai, ok := attrAt[pair.attr]
				if !ok {
					ai = len(g.attrs)
					attrAt[pair.attr] = ai
					g.attrs = append(g.attrs, attrPairs{name: pair.attr})
				}
				a := &g.attrs[ai]
				a.fns = append(a.fns, pair.fn)
				a.pairs = append(a.pairs, pi)
			}
		}
	}
	return order, sets
}

// Prepared is a batch of queries prepared on one executor: the batch is
// validated once, and its plan-group partition, layout and plan entries are
// resolved by its first pass and reused by every later pass while the
// executor's plan generation is unchanged (see the file comment). A serving
// transformer holds one for the life of its plan. A Prepared runs only on
// the executor that prepared it; it is safe for concurrent passes.
type Prepared struct {
	e    *Executor
	qs   []Query
	snap atomic.Pointer[preparedSnap]
}

// preparedSnap is one immutable resolution of a Prepared: the plan groups
// with their layouts and plan entries, and the batch's distinct key sets,
// valid while gen equals the executor's plan generation.
type preparedSnap struct {
	gen     uint64
	groups  []*fusedGroup
	keySets []keySet
}

// Prepare validates a batch for repeated passes on this executor. The
// queries are copied; the plan groups are resolved by the first pass.
func (e *Executor) Prepare(qs []Query) (*Prepared, error) {
	if err := e.checkBatch(qs); err != nil {
		return nil, err
	}
	return &Prepared{e: e, qs: slices.Clone(qs)}, nil
}

// snapshot returns the current snapshot and true or, when there is none, a
// new one and false: partitioned and laid out, stamped with the generation
// read before its first lookup (so a drop during the pass leaves it stale),
// with no plan entry resolved yet. eachGroup resolves and publishes it.
// Caller holds the read fence.
func (p *Prepared) snapshot() (*preparedSnap, bool) {
	e := p.e
	if s := p.snap.Load(); s != nil && s.gen == e.planGen.Load() {
		return s, true
	}
	s := &preparedSnap{gen: e.planGen.Load()}
	s.groups, s.keySets = e.groupBatch(p.qs)
	return s, false
}

// eachGroup runs visit on every plan group of snapshot s, on the executor's
// worker pool, with each group's plan entry resolved. A current snapshot is
// reused as is, counting one PlanHits per group. Otherwise each worker
// resolves its group's entry before visiting it, and a pass that completes
// publishes s. Caller holds the read fence.
func (p *Prepared) eachGroup(ctx context.Context, s *preparedSnap, current bool, visit func(g *fusedGroup) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e := p.e
	if current {
		e.mu.Lock()
		e.stats.PlanHits += int64(len(s.groups))
		e.mu.Unlock()
		return par.ForEachCtx(ctx, e.Parallelism, len(s.groups), func(gidx int) error {
			return visit(s.groups[gidx])
		})
	}
	err := par.ForEachCtx(ctx, e.Parallelism, len(s.groups), func(gidx int) error {
		g := s.groups[gidx]
		pe, err := e.plan(g.pk, s.keySets[g.keySet].keys, g.rep.Preds)
		if err != nil {
			return fmt.Errorf("%s: %w", g.rep.SQL("R"), err)
		}
		g.pe = pe
		return visit(g)
	})
	if err != nil {
		return err
	}
	p.snap.Store(s)
	return nil
}

// checkBatch is the fused paths' cheap per-query validation, run up front so
// plan groups can assume well-formed members and errors carry the offending
// query's SQL. It reads only the table's schema, which appends never change.
func (e *Executor) checkBatch(qs []Query) error {
	for _, q := range qs {
		if len(q.Keys) == 0 {
			return fmt.Errorf("%s: query: execute with no group-by keys", q.SQL("R"))
		}
		if e.core.t.Column(q.AggAttr) == nil {
			return fmt.Errorf("%s: query: no aggregation column %q", q.SQL("R"), q.AggAttr)
		}
	}
	return nil
}

// attrState is the aggregate state of one (plan group, attribute): streaming
// accumulators and per-group sorted runs over the first rows of the plan's
// row list. One function fills it, absorb (see delta.go): a scan absorbs a
// new state from row zero, and an append absorbs the delta rows into a
// retained one. Every extraction, cold or warm, reads one (extract), and the
// plan entry retains it, so later passes requesting functions its shape
// covers are served without rescanning.
//
// The map holding these (planEntry.aggs) is immutable once published: a pass
// reads it with one atomic load, and a scan that produces new state publishes
// a copy (retain). States themselves are read-only between appends, whose
// absorbs run under the write fence, excluding readers.
type attrState struct {
	useString  bool
	hasVals    bool // sum/min/max populated (any stream func)
	hasMoments bool // ss populated, and m4 when hasM4 (VAR/STD families, KURTOSIS)
	hasM4      bool
	hasBuf     bool // sorted per-group runs populated (buffered funcs)

	rows int // plan rows absorbed: a prefix of planEntry.rows

	// Accumulators, one slot per non-empty group; nvalid counts the group's
	// non-null values (its run's length, in a buffered state).
	nvalid        []int
	sum, min, max []float64
	ss, m4        []float64
	// Per-group ascending non-null values. A group's run is cut from one
	// buffer shared with the groups absorbed alongside it, with capacity
	// clipped at its reserved end (the group's matching-row count), so a
	// later append that outgrows the run moves only that run.
	sortF [][]float64 // numeric attributes
	sortS [][]string  // string attributes
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

// streamable reports whether fn is served by the streaming passes (A/B) on a
// numeric column; everything else buffers values in pass A's sorted buffers.
func streamable(fn agg.Func) bool {
	switch fn {
	case agg.Sum, agg.Min, agg.Max, agg.Avg,
		agg.Var, agg.VarSample, agg.Std, agg.StdSample, agg.Kurtosis:
		return true
	}
	return false
}

// needsMoments reports whether fn needs pass B's centered moments.
func needsMoments(fn agg.Func) bool {
	switch fn {
	case agg.Var, agg.VarSample, agg.Std, agg.StdSample, agg.Kurtosis:
		return true
	}
	return false
}

// runPlanGroup evaluates one plan group over its plan entry pe for the local
// groups in touched, writing pair pi's value and validity for touched group t
// to vals[pi*nt+t] and valid[pi*nt+t] (nt = len(touched)); every slot is
// written. It follows the group's layout: COUNT and all-NULL pairs resolve
// directly, and each attribute is served from the plan's retained state when
// that covers every function the group asks of it — a warm pass, which
// allocates nothing here and costs O(len(touched)) however many groups the
// plan holds. Otherwise the attribute takes the scan branch first: resolve the
// column, run the shared scans, and retain the new state. Either
// way every pair is extracted from an attrState, each group's value computed
// alone, so it does not depend on which other groups the pass touches (those
// its training rows join). The context is observed between the per-attribute
// scans, so a batch that collapsed into one huge plan group still cancels
// promptly (the per-worker check in the batch loop runs only once for such a
// batch).
func (e *Executor) runPlanGroup(ctx context.Context, g *fusedGroup, pe *planEntry, touched []int32, vals []float64, valid []bool) error {
	nt := len(touched)
	dst := func(pi int) ([]float64, []bool) {
		return vals[pi*nt : (pi+1)*nt], valid[pi*nt : (pi+1)*nt]
	}
	for _, pi := range g.nulls {
		v, ok := dst(pi)
		clear(v)
		clear(ok)
	}
	for _, pi := range g.counts {
		v, ok := dst(pi)
		for t, li := range touched {
			v[t], ok[t] = float64(pe.counts[li]), true
		}
	}

	aggs := pe.retained()
	var scanned map[string]*attrState
	for ai := range g.attrs {
		a := &g.attrs[ai]
		st := aggs[a.name]
		if st == nil || !st.servesAll(a.fns) {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			if st, err = e.scanAttr(ctx, pe, a, st); err != nil {
				return err
			}
			if scanned == nil {
				scanned = map[string]*attrState{}
			}
			scanned[a.name] = st
		}
		for k, pi := range a.pairs {
			v, ok := dst(pi)
			st.extract(a.fns[k], pe.counts, touched, v, ok)
		}
	}
	if scanned != nil {
		pe.retain(scanned)
	}

	e.mu.Lock()
	e.stats.FusedQueries += int64(g.nqueries)
	e.stats.CountOnlyQueries += int64(g.ncount)
	e.mu.Unlock()
	return nil
}

// scanAttr is runPlanGroup's scan branch for one attribute: it classifies the
// requested functions into a new state's shape — unioning the shape of the
// attribute's old retained state old (nil if none), so the replacement never
// serves less than its predecessor — and absorbs the plan's rows into it from
// row zero. It counts one shared scan per walk over the plan's rows: one,
// plus a second for a streaming state's centered moments.
func (e *Executor) scanAttr(ctx context.Context, pe *planEntry, a *attrPairs, old *attrState) (*attrState, error) {
	col := e.core.t.Column(a.name)
	st := &attrState{useString: col.Kind() == dataframe.KindString}
	if st.useString {
		st.hasBuf = true
	} else {
		for _, fn := range a.fns {
			if streamable(fn) {
				st.hasVals = true
				st.hasMoments = st.hasMoments || needsMoments(fn)
				st.hasM4 = st.hasM4 || fn == agg.Kurtosis
			} else {
				st.hasBuf = true
			}
		}
		if old != nil {
			st.hasVals = st.hasVals || old.hasVals
			st.hasMoments = st.hasMoments || old.hasMoments
			st.hasM4 = st.hasM4 || old.hasM4
			st.hasBuf = st.hasBuf || old.hasBuf
		}
	}
	if _, err := st.absorb(ctx, pe, col); err != nil {
		return nil, err
	}
	if len(pe.counts) > 0 {
		e.noteScan(len(pe.segs))
		if st.hasMoments && !st.hasBuf {
			e.noteScan(len(pe.segs))
		}
	}
	return st, nil
}

// extract serves one function from the state for the touched local groups,
// writing group touched[t]'s result to vals[t] and valid[t]. It reproduces
// agg.Func.Apply's formulas — including expression order, so floats match
// bit for bit. Buffered functions read the group's sorted run; each extractor
// reproduces its agg.Func counterpart exactly — same empty-group conventions,
// same tie-breaks, same floating-point accumulation order (distinct values
// ascending, the order agg sorts its map keys into).
func (st *attrState) extract(fn agg.Func, counts []int, touched []int32, vals []float64, valid []bool) {
	if !st.useString && streamable(fn) {
		streamExtract(fn, st.nvalid, st.sum, st.min, st.max, st.ss, st.m4, touched, vals, valid)
		return
	}
	var devbuf []float64 // MAD deviation scratch, reused across groups
	for t, li := range touched {
		if st.useString {
			vals[t], valid[t] = sortedStringAgg(fn, st.sortS[li], counts[li])
		} else {
			vals[t], valid[t] = sortedFloatAgg(fn, &devbuf, st.sortF[li], counts[li])
		}
	}
}

// streamExtract serves one streamable function from per-group accumulators
// for the touched local groups, writing group touched[t]'s result to vals[t]
// and valid[t] ((0, false) where the aggregate is undefined). It reproduces
// agg.Func.Apply's formulas — including expression order, so floats match
// bit for bit.
func streamExtract(fn agg.Func, nvalid []int, sum, mn, mx, ss, m4 []float64, touched []int32, vals []float64, valid []bool) {
	for t, li := range touched {
		v, ok := 0.0, false
		// nv == 0 leaves (0, false): the aggregate of an all-NULL group.
		if nv := nvalid[li]; nv > 0 {
			nvf := float64(nv)
			switch fn {
			case agg.Sum:
				v, ok = sum[li], true
			case agg.Min:
				v, ok = mn[li], true
			case agg.Max:
				v, ok = mx[li], true
			case agg.Avg:
				v, ok = sum[li]/nvf, true
			case agg.Var:
				v, ok = ss[li]/nvf, true
			case agg.VarSample:
				if nv >= 2 {
					v, ok = ss[li]/nvf*nvf/float64(nv-1), true
				}
			case agg.Std:
				v, ok = math.Sqrt(ss[li]/nvf), true
			case agg.StdSample:
				if nv >= 2 {
					v, ok = math.Sqrt(ss[li]/nvf*nvf/float64(nv-1)), true
				}
			case agg.Kurtosis:
				if m2 := ss[li] / nvf; nv >= 4 && m2 != 0 {
					k4 := m4[li] / nvf
					v, ok = k4/(m2*m2)-3, true
				}
			}
		}
		vals[t], valid[t] = v, ok
	}
}

// medianSorted is agg's median over an already-sorted slice.
func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedFloatAgg evaluates one buffered aggregate over a group's ascending-
// sorted non-null values, mirroring agg.Func.Apply's results bit for bit.
// devbuf is the caller's MAD deviation scratch, grown as needed and reused
// across groups.
func sortedFloatAgg(fn agg.Func, devbuf *[]float64, seg []float64, n int) (float64, bool) {
	if fn == agg.CountDistinct {
		// Defined on empty input.
		return float64(countRuns(seg)), true
	}
	if len(seg) == 0 {
		return 0, false
	}
	switch fn {
	case agg.Median:
		return medianSorted(seg), true
	case agg.MAD:
		med := medianSorted(seg)
		if cap(*devbuf) < len(seg) {
			*devbuf = make([]float64, len(seg))
		}
		dev := (*devbuf)[:len(seg)]
		for i, x := range seg {
			dev[i] = math.Abs(x - med)
		}
		slices.Sort(dev)
		return medianSorted(dev), true
	case agg.Entropy:
		return entropyRuns(seg), true
	case agg.Mode:
		v, _ := modeRun(seg)
		return v, true
	}
	// Unreachable for the partition above; delegate for safety.
	return fn.Apply(seg, n)
}

// sortedStringAgg evaluates one buffered aggregate over a group's sorted
// non-null string values, mirroring agg.Func.StringApply bit for bit. COUNT
// never reaches it: groupBatch routes every COUNT pair to the plan's counts.
func sortedStringAgg(fn agg.Func, seg []string, n int) (float64, bool) {
	if fn == agg.CountDistinct {
		return float64(countRuns(seg)), true
	}
	if len(seg) == 0 {
		return 0, false
	}
	switch fn {
	case agg.Entropy:
		return entropyRuns(seg), true
	case agg.Mode:
		// StringApply returns the modal category's frequency.
		_, k := modeRun(seg)
		return float64(k), true
	}
	return fn.StringApply(seg, n)
}

// runEnd returns the end of the run of values equal to s[i] in the sorted s.
// Distinct values are the runs of equal neighbours (a NaN is a run of its
// own, as it is a distinct map key in agg).
func runEnd[T float64 | string](s []T, i int) int {
	j := i + 1
	for j < len(s) && s[j] == s[i] {
		j++
	}
	return j
}

// countRuns returns the number of distinct values in the sorted s.
func countRuns[T float64 | string](s []T) int {
	cnt := 0
	for i := 0; i < len(s); i = runEnd(s, i) {
		cnt++
	}
	return cnt
}

// entropyRuns returns the Shannon entropy of the value frequencies of the
// sorted, non-empty s, accumulated over distinct values ascending (the order
// agg sorts its map keys into).
func entropyRuns[T float64 | string](s []T) float64 {
	nf := float64(len(s))
	h := 0.0
	for i := 0; i < len(s); {
		j := runEnd(s, i)
		p := float64(j-i) / nf
		h -= p * math.Log(p)
		i = j
	}
	return h
}

// modeRun returns the first value of the longest run of the sorted,
// non-empty s and that run's length. Strictly-greater keeps the first
// (smallest) value among tied runs, matching agg.mode's tie-break.
func modeRun[T float64 | string](s []T) (T, int) {
	best, bestN := s[0], 0
	for i := 0; i < len(s); {
		j := runEnd(s, i)
		if j-i > bestN {
			best, bestN = s[i], j-i
		}
		i = j
	}
	return best, bestN
}
