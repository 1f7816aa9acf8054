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

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

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

// pairResult is the per-group output of one aggPair, shared by every query of
// the plan group that requested the pair.
type pairResult struct {
	vals  []float64
	valid []bool
}

// fusedGroup collects the batch slots of one plan group: which queries landed
// in it and which deduplicated agg pairs they need. The partition is computed
// once per batch (groupBatch) and shared by the execute and scatter stages.
type fusedGroup struct {
	keys    []string
	preds   []Predicate // representative predicate set (first query's)
	rep     Query       // representative query, for error context
	repSlot int         // representative batch slot
	order   []aggPair   // deduped pairs in first-seen order
	slots   map[aggPair][]int
}

// groupBatch partitions a batch by plan group — one (key-set, canonical
// WHERE-mask signature) pair — deduplicating agg pairs within each group.
// Signatures come from the executor's kind-aware predKey, matching the plan
// cache's identity exactly.
func (e *Executor) groupBatch(qs []Query) []*fusedGroup {
	groups := map[planKey]*fusedGroup{}
	var order []*fusedGroup
	for i, q := range qs {
		pk := planKey{keys: strings.Join(q.Keys, "\x1f"), sig: e.maskSig(q.Preds)}
		g, ok := groups[pk]
		if !ok {
			g = &fusedGroup{
				keys:    q.Keys,
				preds:   q.Preds,
				rep:     q,
				repSlot: i,
				slots:   map[aggPair][]int{},
			}
			groups[pk] = g
			order = append(order, g)
		}
		pair := aggPair{attr: q.AggAttr, fn: q.Agg}
		if _, seen := g.slots[pair]; !seen {
			g.order = append(g.order, pair)
		}
		g.slots[pair] = append(g.slots[pair], i)
	}
	return order
}

// executeBatchCore evaluates a batch of queries, fused by plan group, and
// returns one execResult per query in input order. Results of queries sharing
// a plan group and agg pair share their slices (read-only), and every query of
// a plan group shares its key columns, materialised once.
func (e *Executor) executeBatchCore(ctx context.Context, qs []Query) ([]execResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]execResult, len(qs))
	if err := e.checkBatch(qs); err != nil {
		return nil, err
	}
	order := e.groupBatch(qs)

	// Every group of the plan is touched: results carry one row per
	// non-empty group.
	err := par.ForEachCtx(ctx, e.Parallelism, len(order), func(gidx int) error {
		g := order[gidx]
		pe, err := e.groupPlan(g)
		if err != nil {
			return err
		}
		prs, err := e.runPlanGroup(ctx, g, pe, allGroups(len(pe.repr)))
		if err != nil {
			return err
		}
		keyCols := takeKeyCols(pe.gi, pe.repr)
		for _, pair := range g.order {
			pr := prs[pair]
			for _, qi := range g.slots[pair] {
				results[qi] = execResult{keyCols: keyCols, vals: pr.vals, valid: pr.valid}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// checkBatch is the fused paths' cheap per-query validation, run up front so
// plan groups can assume well-formed members and errors carry the offending
// query's SQL.
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

// groupPlan returns a plan group's cached discovery entry, with errors
// carrying the group's representative SQL.
func (e *Executor) groupPlan(g *fusedGroup) (*planEntry, error) {
	pe, err := e.plan(g.keys, g.preds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.rep.SQL("R"), err)
	}
	return pe, nil
}

// allGroups lists local groups 0..n-1: the touched set of a caller that
// wants every group of a plan.
func allGroups(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// attrScan is the per-attribute state of a plan group's shared scans: the
// column's float view and validity slice (kind-specialised once, up front —
// no per-row AsFloat/IsNull calls) plus whichever accumulators its requested
// functions need.
type attrScan struct {
	useString bool
	col       *dataframe.Column // the aggregation attribute

	stream   []agg.Func // served by pass A (and B for the moment family)
	buffered []agg.Func // served by the sorted per-group value buffers

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
	cbuf    []uint32
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

// runPlanGroup evaluates one plan group over its discovery entry pe: the
// shared passes feeding every requested (attr, func) pair — skipped for
// attributes whose retained state already serves them — then extraction of
// each pair for the local groups in touched only. Results are indexed like
// touched, so a warm pass costs O(len(touched)) however many groups the plan
// holds: ExecuteBatch touches every group, an augment only the groups its
// training rows join. Each group's value is computed alone, so a touched
// subset is bit-identical to the same groups of a full extraction. The
// context is observed between the per-attribute scans, so a batch that
// collapsed into one huge plan group still cancels promptly (the per-worker
// check in the batch loop runs only once for such a batch).
func (e *Executor) runPlanGroup(ctx context.Context, g *fusedGroup, pe *planEntry, touched []int) (map[aggPair]pairResult, error) {
	ngroups := len(pe.repr)
	nt := len(touched)
	out := make(map[aggPair]pairResult, len(g.order))

	// Snapshot the plan's retained aggregate state (delta.go): attributes whose
	// every requested function the state covers are served without rescanning.
	var cached map[string]*attrState
	pe.amu.Lock()
	if len(pe.aggs) > 0 {
		cached = make(map[string]*attrState, len(pe.aggs))
		for k, v := range pe.aggs {
			cached[k] = v
		}
	}
	pe.amu.Unlock()

	// Organise the group's pairs by attribute; direct pairs (COUNT, undefined
	// string aggregates) resolve immediately, the rest collect per attribute.
	attrs := map[string]*attrScan{}
	var attrOrder []string
	pending := map[string][]agg.Func{}
	countOnly := 0
	for _, pair := range g.order {
		as, ok := attrs[pair.attr]
		if !ok {
			// Plan rows index the physical scan table (the parent, for shard
			// executors), so attribute columns must come from it.
			col := e.core.t.Column(pair.attr)
			as = &attrScan{
				useString: col.Kind() == dataframe.KindString,
				col:       col,
				valid:     col.ValidData(),
			}
			if as.useString {
				as.strs = col.StrData()
			} else {
				as.fvals = e.floatView(col)
			}
			attrs[pair.attr] = as
			attrOrder = append(attrOrder, pair.attr)
		}
		fn := pair.fn
		switch {
		case as.useString && !fn.SupportsStrings():
			// A numeric aggregate over a categorical attribute is undefined:
			// an all-NULL feature, no scan work.
			out[pair] = pairResult{vals: make([]float64, nt), valid: make([]bool, nt)}
		case fn == agg.Count:
			// COUNT depends only on the (cached) per-group row counts.
			vals := make([]float64, nt)
			valid := make([]bool, nt)
			for t, li := range touched {
				vals[t], valid[t] = float64(pe.counts[li]), true
			}
			out[pair] = pairResult{vals: vals, valid: valid}
			countOnly += len(g.slots[pair])
		default:
			pending[pair.attr] = append(pending[pair.attr], fn)
		}
	}

	// Decide per attribute: serve every pending function from the retained
	// state, or classify into the scan shapes — unioning the old state's
	// capabilities into the scan's so the replacement state never loses what
	// its predecessor could serve.
	served := map[string]*attrState{}
	var scanList []*attrScan
	for _, attr := range attrOrder {
		fns := pending[attr]
		if len(fns) == 0 {
			continue
		}
		as := attrs[attr]
		if st := cached[attr]; st != nil && st.servesAll(fns) {
			served[attr] = st
			continue
		}
		for _, fn := range fns {
			if !as.useString && streamable(fn) {
				as.stream = append(as.stream, fn)
				as.needVals = true
				if needsMoments(fn) {
					as.needMoments = true
				}
				if fn == agg.Kurtosis {
					as.needM4 = true
				}
			} else {
				as.buffered = append(as.buffered, fn)
				as.needBuf = true
			}
		}
		if st := cached[attr]; st != nil && !as.useString {
			as.needVals = as.needVals || st.hasVals
			as.needMoments = as.needMoments || st.hasMoments
			as.needM4 = as.needM4 || st.hasM4
			as.needBuf = as.needBuf || st.hasBuf
		}
		scanList = append(scanList, as)
	}

	if len(scanList) > 0 && ngroups > 0 {
		for _, as := range scanList {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if as.needBuf {
				if dom := e.domain(as.col); dom.ok {
					as.dom = dom
				}
			}
			if err := as.scan(ctx, e, pe, ngroups); err != nil {
				return nil, err
			}
		}
	}

	// Retain the scanned attributes' state for later batches and for delta
	// advances; a rescan replaces the old (narrower) state wholesale.
	if len(scanList) > 0 {
		pe.amu.Lock()
		if pe.aggs == nil {
			pe.aggs = make(map[string]*attrState, len(scanList))
		}
		for _, as := range scanList {
			pe.aggs[as.col.Name()] = captureAttrState(as, ngroups)
		}
		pe.amu.Unlock()
	}

	// Extract every remaining pair's result from the retained state or the
	// fresh accumulators/buffers — shared helpers either way, so served values
	// are bit-identical to scanned ones.
	for _, pair := range g.order {
		if _, done := out[pair]; done {
			continue
		}
		if st := served[pair.attr]; st != nil {
			out[pair] = st.extract(pair.fn, pe.counts, touched)
			continue
		}
		out[pair] = extractPair(pair.fn, attrs[pair.attr], pe.counts, touched)
	}
	e.mu.Lock()
	for _, pair := range g.order {
		e.stats.FusedQueries += int64(len(g.slots[pair]))
	}
	e.stats.CountOnlyQueries += int64(countOnly)
	e.mu.Unlock()
	return out, nil
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
				as.cbuf = make([]uint32, as.offs[ngroups])
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
// final values of one aggregation function for the touched local groups
// (result t is group touched[t]), reproducing agg.Func.Apply's formulas —
// including expression order, so floats match bit for bit.
func extractPair(fn agg.Func, as *attrScan, counts []int, touched []int) pairResult {
	if !as.useString && streamable(fn) {
		return streamExtract(fn, as.nvalid, as.sum, as.min, as.max, as.ss, as.m4, touched)
	}
	// Buffered path: compute from the group's sorted value segment. Each
	// extractor reproduces its agg.Func counterpart exactly — same empty-group
	// conventions, same tie-breaks, same floating-point accumulation order
	// (distinct values ascending, the order agg sorts its map keys into).
	vals := make([]float64, len(touched))
	valid := make([]bool, len(touched))
	for t, li := range touched {
		seg := as.offs[li]
		end := as.fill[li]
		if as.useString {
			vals[t], valid[t] = sortedStringAgg(fn, as.sbuf[seg:end], counts[li])
		} else {
			vals[t], valid[t] = sortedFloatAgg(fn, &as.devbuf, as.fbuf[seg:end], counts[li])
		}
	}
	return pairResult{vals: vals, valid: valid}
}

// streamExtract serves one streamable function from per-group accumulators
// for the touched local groups (result t is group touched[t]), reproducing
// agg.Func.Apply's formulas — including expression order, so floats match
// bit for bit. Shared by the fresh-scan path (extractPair) and the
// retained-state path (attrState.extract in delta.go).
func streamExtract(fn agg.Func, nvalid []int, sum, mn, mx, ss, m4 []float64, touched []int) pairResult {
	vals := make([]float64, len(touched))
	valid := make([]bool, len(touched))
	for t, li := range touched {
		nv := nvalid[li]
		if nv == 0 {
			continue // (0, false): aggregate of an all-NULL group
		}
		nvf := float64(nv)
		switch fn {
		case agg.Sum:
			vals[t], valid[t] = sum[li], true
		case agg.Min:
			vals[t], valid[t] = mn[li], true
		case agg.Max:
			vals[t], valid[t] = mx[li], true
		case agg.Avg:
			vals[t], valid[t] = sum[li]/nvf, true
		case agg.Var:
			vals[t], valid[t] = ss[li]/nvf, true
		case agg.VarSample:
			if nv < 2 {
				continue
			}
			vals[t], valid[t] = ss[li]/nvf*nvf/float64(nv-1), true
		case agg.Std:
			vals[t], valid[t] = math.Sqrt(ss[li]/nvf), true
		case agg.StdSample:
			if nv < 2 {
				continue
			}
			vals[t], valid[t] = math.Sqrt(ss[li]/nvf*nvf/float64(nv-1)), true
		case agg.Kurtosis:
			if nv < 4 {
				continue
			}
			m2 := ss[li] / nvf
			if m2 == 0 {
				continue
			}
			k4 := m4[li] / nvf
			vals[t], valid[t] = k4/(m2*m2)-3, true
		}
	}
	return pairResult{vals: vals, valid: valid}
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
