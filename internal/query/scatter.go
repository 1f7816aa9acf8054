package query

// The fused train-side scatter, the only one the executor has: a single
// AugmentValues is a batch of one. Plan-group fusion extends across the
// train-side boundary: the batch is grouped by the same (key-set, WHERE-mask
// signature) plan groups as the execute path, and each group builds ONE
// train-group mapping and runs ONE pass over the training table that writes
// every query's feature column in the same loop. Queries sharing a (plan
// group, agg pair) are served by one column, matching the slice sharing of
// the fused execute path. The mapping names only the plan groups the training
// rows join (touchedGroups), and aggregates are extracted for those alone, so
// the pass is sized by the training table, not the relevant one. Results are
// bit-identical to Query.Augment (the differential tests enforce it): the
// per-group projection tables fold the NULL/NaN convention before the pass,
// so the row loop is branch-free integer indexing.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataframe"
)

// FeatureMatrix is a columnar bulk feature output: NumFeatures() feature
// vectors over NumRows() training rows in one flat column-major buffer, so
// downstream dataset assembly (pipeline evaluation, ml.Dataset construction,
// bulk column appends) consumes a single allocation instead of per-feature
// slices. Column j occupies Vals[j*rows : (j+1)*rows], with Valid parallel.
type FeatureMatrix struct {
	rows, cols int
	Vals       []float64
	Valid      []bool
}

func newFeatureMatrix(rows, cols int) *FeatureMatrix {
	return &FeatureMatrix{
		rows: rows, cols: cols,
		Vals:  make([]float64, rows*cols),
		Valid: make([]bool, rows*cols),
	}
}

// NewFeatureMatrix allocates an empty rows×cols feature matrix. Callers
// outside the executor (plan assembly, serving scatter-back) fill columns
// through Col views.
func NewFeatureMatrix(rows, cols int) *FeatureMatrix {
	if rows < 0 || cols < 0 {
		panic("query: NewFeatureMatrix with negative dimensions")
	}
	return newFeatureMatrix(rows, cols)
}

// RowSlice copies rows [lo, hi) of every feature column into a fresh
// (hi-lo)×cols matrix. The serving coalescer uses it to scatter one fused
// AugmentMatrix pass back to the waiters that contributed each row range;
// the copy keeps waiter results alive independently of the batch buffer.
func (m *FeatureMatrix) RowSlice(lo, hi int) *FeatureMatrix {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("query: RowSlice [%d, %d) out of range for %d rows", lo, hi, m.rows))
	}
	out := newFeatureMatrix(hi-lo, m.cols)
	for j := 0; j < m.cols; j++ {
		sv, sok := m.Col(j)
		dv, dok := out.Col(j)
		copy(dv, sv[lo:hi])
		copy(dok, sok[lo:hi])
	}
	return out
}

// NumRows returns the number of rows each feature column has.
func (m *FeatureMatrix) NumRows() int { return m.rows }

// NumFeatures returns the number of feature columns.
func (m *FeatureMatrix) NumFeatures() int { return m.cols }

// Col returns feature column j as (values, validity) views into the flat
// buffer. The views alias the matrix storage; treat them as read-only.
func (m *FeatureMatrix) Col(j int) ([]float64, []bool) {
	lo, hi := j*m.rows, (j+1)*m.rows
	return m.Vals[lo:hi:hi], m.Valid[lo:hi:hi]
}

// projSlot is one entry of a column's projection table: the feature value
// and validity of one local group, with the join-miss / NULL-aggregate / NaN
// conventions pre-folded (slot 0 = join miss or empty plan group).
type projSlot struct {
	v  float64
	ok bool
}

// scatterCol is one distinct output column of a plan group's shared scatter
// pass: its projection table (a view into a per-group slab, so a group costs
// a constant number of allocations however many columns it serves) plus the
// destination matrix column.
type scatterCol struct {
	proj  []projSlot
	vals  []float64
	valid []bool
}

// augment is the fused augment: per plan group of the prepared batch, the
// join resolves d's train groups to the plan's local groups (touchedGroups),
// runPlanGroup extracts every pair for those groups only, and one shared pass
// over d scatters them into m's columns. Each distinct (plan group, agg pair)
// is scattered once, into its first query's column; duplicate queries are
// filled by copy. Every step is sized by d — its rows and the groups they
// join — so a warm pass for a few request rows costs a few rows' work however
// large the relevant table is. Caller holds the read fence.
func (p *Prepared) augment(ctx context.Context, d *dataframe.Table, m *FeatureMatrix) error {
	e := p.e
	n := d.NumRows()
	return p.eachGroup(ctx, func(g *fusedGroup) error {
		pe := g.pe
		jn, err := e.joinIndex(d, g.rep.Keys)
		if err != nil {
			return fmt.Errorf("%s: %w", g.rep.SQL("R"), err)
		}
		sc := scatterPool.Get().(*scatterScratch)
		defer scatterPool.Put(sc)
		touched, dgToT := sc.touchedGroups(pe, jn)
		prs, err := e.runPlanGroup(ctx, g, pe, touched)
		if err != nil {
			return err
		}
		nt := len(touched)
		ncols := len(g.order)
		// One slab holds every column's projection table: slot t+1 serves
		// touched group t, slot 0 a join miss.
		pslab := make([]projSlot, (nt+1)*ncols)
		cols := make([]scatterCol, ncols)
		for ci, pair := range g.order {
			pr := prs[pair]
			c := &cols[ci]
			lo := ci * (nt + 1)
			c.proj = pslab[lo : lo+nt+1 : lo+nt+1]
			for t, v := range pr.vals {
				// NaN aggregates are NULL, matching NewFloatColumn + Floats.
				if pr.valid[t] && !math.IsNaN(v) {
					c.proj[t+1] = projSlot{v: v, ok: true}
				}
			}
			c.vals, c.valid = m.Col(g.slots[pair][0])
		}

		// The shared pass over the training table: resolve each row's touched
		// slot once — the random-access half of the scatter (row -> train
		// group -> plan-group slot), shared by every column of the group —
		// into a compact sequential map. The pass walks the training
		// table morsel by morsel, observing the context at each boundary.
		bounds := dataframe.MorselBounds(n, e.core.morselRows)
		dRowGID := jn.idx.RowGroups()
		rowLocal := grabInts32(&sc.rowLocal, n)
		for _, bl := range bounds {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.noteMorsel()
			for row := bl[0]; row < bl[1]; row++ {
				rowLocal[row] = int32(dgToT[dRowGID[row]])
			}
		}

		// Column fills: pure sequential streams off the shared row map, with
		// the miss/NULL branches pre-folded into the projection tables. The
		// context is observed per (column, morsel), so a huge single-group
		// batch still cancels inside the batch loop.
		for ci := range cols {
			c := &cols[ci]
			proj, cv, cok := c.proj, c.vals, c.valid
			for _, bl := range bounds {
				if err := ctx.Err(); err != nil {
					return err
				}
				for row := bl[0]; row < bl[1]; row++ {
					p := proj[rowLocal[row]]
					cv[row] = p.v
					cok[row] = p.ok
				}
			}
		}

		served := 0
		for ci, pair := range g.order {
			c := &cols[ci]
			for si, slot := range g.slots[pair] {
				if si > 0 {
					mv, mok := m.Col(slot)
					copy(mv, c.vals)
					copy(mok, c.valid)
				}
				served++
			}
		}
		e.mu.Lock()
		e.stats.ScatterPasses++
		e.stats.ScatterQueries += int64(served)
		e.mu.Unlock()
		return nil
	})
}

// touchedGroups resolves d's train groups through the join to the plan
// group's local groups. touched lists each local group some train group
// joins, in order of first join over train group ids; dgToT[dg] is the
// 1-based position in touched of train group dg's local group, 0 on a join
// miss or a group empty under the plan's mask. The cost is O(train groups):
// sc.mark dedupes local groups and is reset entry by entry afterwards, so no
// O(plan groups) array is cleared per call.
func (sc *scatterScratch) touchedGroups(pe *planEntry, jn *joinEntry) ([]int, []int) {
	if len(sc.mark) < len(pe.repr) {
		sc.mark = make([]int32, len(pe.repr))
	}
	mark := sc.mark
	dgToT := grabInts(&sc.dgToLocal, len(jn.dToR))
	touched := make([]int, 0, min(len(jn.dToR), len(pe.repr)))
	for dg, rg := range jn.dToR {
		if rg < 0 || rg >= len(pe.local) || pe.local[rg] == 0 {
			continue
		}
		li := pe.local[rg] - 1
		t := mark[li]
		if t == 0 {
			touched = append(touched, li)
			t = int32(len(touched))
			mark[li] = t
		}
		dgToT[dg] = int(t)
	}
	for _, li := range touched {
		mark[li] = 0
	}
	return touched, dgToT
}
