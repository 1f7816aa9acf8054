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
// column data: appends and Compact can replace a *Column, its float view or
// its code slice, so only the scan branch resolves them, per pass.
//
// The plan generation rises whenever an entry leaves the executor's plan map
// (a whole-map drop at the bound, the dictionary-shift wipe, an entry that
// cannot be advanced); a pass that finds a stale stamp prepares again, layout
// included, since predKey codes may have moved. A held entry stays valid
// while its stamp is current because appends advance every entry of the plan
// map in place, under the write fence that each pass excludes by holding the
// read side. The one-shot Executor.AugmentMatrix, and everything riding it,
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
// columns and their views, per pass.
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
// holds the read fence (predKey reads dictionary codes).
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

// attrScan is the per-attribute state of a plan group's shared scans: the
// column's float view and validity slice (kind-specialised once, up front —
// no per-row AsFloat/IsNull calls) plus whichever accumulators its requested
// functions need.
type attrScan struct {
	useString bool
	col       *dataframe.Column // the aggregation attribute

	needVals    bool // pass A accumulates sum/min/max (any stream func)
	needBuf     bool // pass A also fills flat value buffers (buffered funcs)
	needMoments bool // pass B runs (VAR/STD families, KURTOSIS)
	needM4      bool // pass B also accumulates fourth powers (KURTOSIS)

	valid []bool
	fvals []float64 // cached float view (numeric attributes)
	strs  []string  // backing strings (string attributes)

	// Accumulators, one slot per non-empty group.
	nvalid   []int
	sum      []float64
	min, max []float64
	ss, m4   []float64

	// Flat per-group value buffers, filled during pass A. Offsets are
	// prefix-summed from the plan's cached total row counts (an upper bound
	// on non-null counts), so the fill needs no counting pre-pass; segments
	// are sorted in place once per group afterwards, so every
	// order-statistics / distinct-counting function of the attribute shares
	// one sort instead of building its own map or sorted copy per query.
	offs, fill []int
	fbuf       []float64
	sbuf       []string
	devbuf     []float64 // MAD deviation scratch, reused across groups

	// Counting-path state (see counting.go): the attribute's cached domain
	// probe (nil or ineligible → comparison sort), per-segment count and
	// touched-code scratch, and the code buffer string attributes scatter
	// into instead of strings.
	dom     *domainEntry
	cnt     []int32
	touched []int32
	cbuf    []uint16
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
// plan holds — and otherwise takes the scan branch: resolve the column and its
// view, run the shared scans, extract, and retain the new state. Each group's
// value is computed alone through the same helpers either way, so it does not
// depend on which other groups the pass touches (those its training rows
// join). The context is observed between the per-attribute scans, so a
// batch that collapsed into one huge plan group still cancels promptly (the
// per-worker check in the batch loop runs only once for such a batch).
func (e *Executor) runPlanGroup(ctx context.Context, g *fusedGroup, pe *planEntry, touched []int, vals []float64, valid []bool) error {
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
	var scanned []*attrScan
	for ai := range g.attrs {
		a := &g.attrs[ai]
		st := aggs[a.name]
		if st != nil && st.servesAll(a.fns) {
			for k, pi := range a.pairs {
				v, ok := dst(pi)
				st.extract(a.fns[k], pe.counts, touched, v, ok)
			}
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		as, err := e.scanAttr(ctx, pe, a, st)
		if err != nil {
			return err
		}
		for k, pi := range a.pairs {
			v, ok := dst(pi)
			extractPair(a.fns[k], as, pe.counts, touched, v, ok)
		}
		scanned = append(scanned, as)
	}
	if len(scanned) > 0 {
		pe.retain(scanned)
	}

	e.mu.Lock()
	e.stats.FusedQueries += int64(g.nqueries)
	e.stats.CountOnlyQueries += int64(g.ncount)
	e.mu.Unlock()
	return nil
}

// scanAttr is runPlanGroup's scan branch for one attribute: it resolves the
// column and its float view, classifies the requested functions into the
// scan shapes — unioning the capabilities of the attribute's old retained
// state st (nil if none), so the replacement never serves less than its
// predecessor — and runs the shared scans.
func (e *Executor) scanAttr(ctx context.Context, pe *planEntry, a *attrPairs, st *attrState) (*attrScan, error) {
	col := e.core.t.Column(a.name)
	as := &attrScan{
		useString: col.Kind() == dataframe.KindString,
		col:       col,
		valid:     col.ValidData(),
	}
	if as.useString {
		as.strs = col.StrData()
	} else {
		as.fvals = e.floatView(col)
	}
	for _, fn := range a.fns {
		if !as.useString && streamable(fn) {
			as.needVals = true
			as.needMoments = as.needMoments || needsMoments(fn)
			as.needM4 = as.needM4 || fn == agg.Kurtosis
		} else {
			as.needBuf = true
		}
	}
	if st != nil && !as.useString {
		as.needVals = as.needVals || st.hasVals
		as.needMoments = as.needMoments || st.hasMoments
		as.needM4 = as.needM4 || st.hasM4
		as.needBuf = as.needBuf || st.hasBuf
	}
	if ngroups := len(pe.counts); ngroups > 0 {
		if as.needBuf {
			if dom := e.domain(col); dom.ok {
				as.dom = dom
			}
		}
		if err := as.scan(ctx, e, pe, ngroups); err != nil {
			return nil, err
		}
	}
	return as, nil
}

// scan runs the attribute's shared table scan(s) and extraction. When any
// order-statistics function is requested (needBuf), the indexed scan scatters
// the group's non-null values into one flat buffer partitioned by group
// (offsets prefix-summed from the plan's cached row counts, so no counting
// pre-pass) and everything — streaming sum/min/max, the centered moments, the
// shared per-group sort — runs over contiguous buffer segments. When every
// requested function is streamable, no buffer exists at all: the accumulators
// stream directly off the indexed scan, with one extra indexed pass for the
// centered moments. Both shapes accumulate in matching-row order, the exact
// order of agg.Func.Apply over Query.Execute's per-group value lists, so
// every result is bit-identical.
//
// Every pass walks the plan's morsel segments (pe.segs), observing the
// context at each boundary; fill pointers and accumulators carry across
// segments in row order — the sequential merge that keeps floating-point
// accumulation bit-identical to the flat loop (independent per-morsel
// partials would reassociate the sums).
func (as *attrScan) scan(ctx context.Context, e *Executor, pe *planEntry, ngroups int) error {
	e.countScan()
	local, rowGID := pe.local, pe.gi.RowGroups()
	valid := as.valid

	if !as.needBuf {
		return as.streamScan(ctx, e, pe, ngroups)
	}

	as.offs = make([]int, ngroups+1)
	for li, n := range pe.counts {
		as.offs[li+1] = as.offs[li] + n
	}
	as.fill = make([]int, ngroups)
	copy(as.fill, as.offs[:ngroups])

	if as.useString {
		as.sbuf = make([]string, as.offs[ngroups])
		if as.dom != nil {
			// Counting path: scatter int32 codes instead of strings, then
			// write each group's segment already sorted from the dictionary —
			// no string moves in the scatter, no string compares at all.
			e.countingScan()
			if cap(as.cbuf) < as.offs[ngroups] {
				as.cbuf = make([]uint16, as.offs[ngroups])
			}
			cbuf := as.cbuf[:as.offs[ngroups]]
			codes, fill := as.dom.codes, as.fill
			for _, sg := range pe.segs {
				if err := ctx.Err(); err != nil {
					return err
				}
				e.noteMorsel()
				for _, i := range pe.rows[sg[0]:sg[1]] {
					if valid[i] {
						li := local[rowGID[i]] - 1
						cbuf[fill[li]] = codes[i]
						fill[li]++
					}
				}
			}
			for li := 0; li < ngroups; li++ {
				as.countingFillStrings(as.sbuf[as.offs[li]:fill[li]], cbuf[as.offs[li]:fill[li]], as.dom.svals, as.dom.k)
			}
			return nil
		}
		strs, sbuf, fill := as.strs, as.sbuf, as.fill
		for _, sg := range pe.segs {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.noteMorsel()
			if strs != nil {
				for _, i := range pe.rows[sg[0]:sg[1]] {
					if valid[i] {
						li := local[rowGID[i]] - 1
						sbuf[fill[li]] = strs[i]
						fill[li]++
					}
				}
			} else {
				// Compact column (nil StrData): decode per row via the dict.
				for _, i := range pe.rows[sg[0]:sg[1]] {
					if valid[i] {
						li := local[rowGID[i]] - 1
						sbuf[fill[li]] = as.col.Str(i)
						fill[li]++
					}
				}
			}
		}
		for li := 0; li < ngroups; li++ {
			slices.Sort(sbuf[as.offs[li]:fill[li]])
		}
		return nil
	}

	as.fbuf = make([]float64, as.offs[ngroups])
	if as.dom != nil {
		e.countingScan()
	}
	fvals, fbuf, fill := as.fvals, as.fbuf, as.fill
	for _, sg := range pe.segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.noteMorsel()
		for _, i := range pe.rows[sg[0]:sg[1]] {
			if valid[i] {
				li := local[rowGID[i]] - 1
				fbuf[fill[li]] = fvals[i]
				fill[li]++
			}
		}
	}

	as.nvalid = make([]int, ngroups)
	if as.needVals {
		as.sum = make([]float64, ngroups)
		as.min = make([]float64, ngroups)
		as.max = make([]float64, ngroups)
	}
	if as.needMoments {
		as.ss = make([]float64, ngroups)
		if as.needM4 {
			as.m4 = make([]float64, ngroups)
		}
	}
	for li := 0; li < ngroups; li++ {
		seg := fbuf[as.offs[li]:fill[li]]
		as.nvalid[li] = len(seg)
		if len(seg) == 0 {
			continue
		}
		if as.needVals {
			// Accumulation mirrors agg's sum / Min / Max loops over the same
			// value order (the first-element compares are no-ops).
			s, mn, mx := 0.0, seg[0], seg[0]
			for _, v := range seg {
				s += v
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			as.sum[li], as.min[li], as.max[li] = s, mn, mx
		}
		if as.needMoments {
			// agg.populationVar / agg.kurtosis term by term: mean first, then
			// centered squares (and fourth powers) in value order.
			m := as.sum[li] / float64(len(seg))
			ss := 0.0
			if as.needM4 {
				m4 := 0.0
				for _, x := range seg {
					d := x - m
					d2 := d * d
					ss += d2
					m4 += d2 * d2
				}
				as.m4[li] = m4
			} else {
				for _, x := range seg {
					d := x - m
					ss += d * d
				}
			}
			as.ss[li] = ss
		}
		if as.dom != nil {
			as.countingSortFloats(seg, as.dom.base, as.dom.k)
		} else {
			slices.Sort(seg)
		}
	}
	return nil
}

// streamScan serves an attribute whose every requested function is streamable
// (the common serving-path shape: SUM / MIN / MAX / AVG and friends) without
// materialising a value buffer: one indexed scan feeds the accumulators
// directly, plus one more for the centered moments when the VAR/STD family or
// KURTOSIS is present. Per-group encounter order equals matching-row order,
// so accumulation is bit-identical to the buffered shape. Both passes walk
// the plan's morsel segments with accumulators carried across (see scan).
func (as *attrScan) streamScan(ctx context.Context, e *Executor, pe *planEntry, ngroups int) error {
	local, rowGID := pe.local, pe.gi.RowGroups()
	valid, fvals := as.valid, as.fvals
	as.nvalid = make([]int, ngroups)
	as.sum = make([]float64, ngroups)
	as.min = make([]float64, ngroups)
	as.max = make([]float64, ngroups)
	nvalid, sum, mn, mx := as.nvalid, as.sum, as.min, as.max
	for _, sg := range pe.segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.noteMorsel()
		for _, i := range pe.rows[sg[0]:sg[1]] {
			if !valid[i] {
				continue
			}
			li := local[rowGID[i]] - 1
			v := fvals[i]
			nv := nvalid[li]
			nvalid[li] = nv + 1
			sum[li] += v
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
	}
	if !as.needMoments {
		return nil
	}
	e.countScan()
	as.ss = make([]float64, ngroups)
	mean := make([]float64, ngroups)
	for li, nv := range nvalid {
		if nv > 0 {
			mean[li] = sum[li] / float64(nv)
		}
	}
	ss := as.ss
	if as.needM4 {
		as.m4 = make([]float64, ngroups)
		m4 := as.m4
		for _, sg := range pe.segs {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.noteMorsel()
			for _, i := range pe.rows[sg[0]:sg[1]] {
				if !valid[i] {
					continue
				}
				li := local[rowGID[i]] - 1
				d := fvals[i] - mean[li]
				d2 := d * d
				ss[li] += d2
				m4[li] += d2 * d2
			}
		}
		return nil
	}
	for _, sg := range pe.segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.noteMorsel()
		for _, i := range pe.rows[sg[0]:sg[1]] {
			if valid[i] {
				li := local[rowGID[i]] - 1
				d := fvals[i] - mean[li]
				ss[li] += d * d
			}
		}
	}
	return nil
}

// extractPair turns one attribute's accumulators (or sorted buffers) into the
// final values of one aggregation function for the touched local groups,
// writing group touched[t]'s result to vals[t] and valid[t]. It reproduces
// agg.Func.Apply's formulas — including expression order, so floats match
// bit for bit.
func extractPair(fn agg.Func, as *attrScan, counts []int, touched []int, vals []float64, valid []bool) {
	if !as.useString && streamable(fn) {
		streamExtract(fn, as.nvalid, as.sum, as.min, as.max, as.ss, as.m4, touched, vals, valid)
		return
	}
	// Buffered path: compute from the group's sorted value segment. Each
	// extractor reproduces its agg.Func counterpart exactly — same empty-group
	// conventions, same tie-breaks, same floating-point accumulation order
	// (distinct values ascending, the order agg sorts its map keys into).
	for t, li := range touched {
		seg := as.offs[li]
		end := as.fill[li]
		if as.useString {
			vals[t], valid[t] = sortedStringAgg(fn, as.sbuf[seg:end], counts[li])
		} else {
			vals[t], valid[t] = sortedFloatAgg(fn, &as.devbuf, as.fbuf[seg:end], counts[li])
		}
	}
}

// streamExtract serves one streamable function from per-group accumulators
// for the touched local groups, writing group touched[t]'s result to vals[t]
// and valid[t] ((0, false) where the aggregate is undefined). It reproduces
// agg.Func.Apply's formulas — including expression order, so floats match
// bit for bit. Shared by the fresh-scan path (extractPair) and the
// retained-state path (attrState.extract in delta.go).
func streamExtract(fn agg.Func, nvalid []int, sum, mn, mx, ss, m4 []float64, touched []int, vals []float64, valid []bool) {
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
		// Distinct values = runs of equal neighbours; defined on empty input.
		cnt := 0
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[i] {
				j++
			}
			cnt++
			i = j
		}
		return float64(cnt), true
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
		nf := float64(len(seg))
		h := 0.0
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[i] {
				j++
			}
			p := float64(j-i) / nf
			h -= p * math.Log(p)
			i = j
		}
		return h, true
	case agg.Mode:
		// Strictly-greater keeps the first (smallest) value among tied runs,
		// matching agg.mode's tie-break.
		best, bestN := 0.0, -1
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[i] {
				j++
			}
			if j-i > bestN {
				best, bestN = seg[i], j-i
			}
			i = j
		}
		return best, true
	}
	// Unreachable for the partition above; delegate for safety.
	return fn.Apply(seg, n)
}

// sortedStringAgg evaluates one buffered aggregate over a group's sorted
// non-null string values, mirroring agg.Func.StringApply bit for bit.
func sortedStringAgg(fn agg.Func, seg []string, n int) (float64, bool) {
	switch fn {
	case agg.Count:
		return float64(n), true
	case agg.CountDistinct:
		cnt := 0
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[i] {
				j++
			}
			cnt++
			i = j
		}
		return float64(cnt), true
	}
	if len(seg) == 0 {
		return 0, false
	}
	switch fn {
	case agg.Entropy:
		nf := float64(len(seg))
		h := 0.0
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[i] {
				j++
			}
			p := float64(j-i) / nf
			h -= p * math.Log(p)
			i = j
		}
		return h, true
	case agg.Mode:
		// StringApply returns the modal category's frequency; tied runs all
		// share it, so the maximum run length is the exact result.
		bestN := 0
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[i] {
				j++
			}
			if j-i > bestN {
				bestN = j - i
			}
			i = j
		}
		return float64(bestN), true
	}
	return fn.StringApply(seg, n)
}
