package query

// The fused train-side scatter, the one output path of the executor: a lone
// query is a batch of one. Plan-group fusion extends across the train-side
// boundary: the batch is grouped by (key-set, WHERE-mask signature) plan
// groups, each of the batch's key sets is joined onto the training table
// once per pass — every training row resolved straight to its relevant group
// through the relevant index's typed key map (joinIndex) — and each group
// builds ONE row-to-local-group mapping and runs ONE pass over the training
// table that writes every query's feature column in the same loop. Queries
// sharing a (plan group, agg pair) are served by one column. The mapping
// names only the plan groups the training rows join (touchedGroups), and
// aggregates are extracted for those alone, so the pass is sized by the
// training table, not the relevant one. Results are bit-identical to
// Query.Augment (the differential tests enforce it): the per-group
// projection tables fold the NULL/NaN convention before the pass, so the row
// loop is branch-free integer indexing.

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

// augment is the fused augment. It resolves each of the batch's key sets
// through joinIndex once, before the plan groups run; then, per plan group,
// the join maps d's rows to the plan's local groups (touchedGroups),
// runPlanGroup extracts every pair for those groups only into the result
// slab, and one shared pass over d scatters them into m's columns. Each
// distinct (plan group, agg pair) is scattered once, into its first query's
// column; duplicate queries are filled by copy. Every step is sized by d —
// its rows and the groups they join — so a warm pass for a few request rows
// costs a few rows' work however large the relevant table is, and, with the
// group's layout held in the snapshot and its working set in pooled scratch,
// allocates only the pass's join entries and its output. Caller holds the
// read fence.
func (p *Prepared) augment(ctx context.Context, d *dataframe.Table, m *FeatureMatrix) error {
	e := p.e
	s, current := p.snapshot()
	joins := make([]*joinEntry, len(s.keySets))
	for i, ks := range s.keySets {
		jn, err := e.joinIndex(d, ks.id, ks.keys)
		if err != nil {
			return fmt.Errorf("%s: %w", ks.rep.SQL("R"), err)
		}
		joins[i] = jn
	}
	n, mr := d.NumRows(), e.morselRows
	return p.eachGroup(ctx, s, current, func(g *fusedGroup) error {
		pe, jn := g.pe, joins[g.keySet]
		sc := scatterPool.Get().(*scatterScratch)
		defer scatterPool.Put(sc)
		// The shared pass over the training table: resolve each row's
		// touched slot once — the random-access half of the scatter (row ->
		// relevant group -> plan-group slot), shared by every column of the
		// group — into a compact sequential map.
		touched, rowLocal, morsels, err := sc.touchedGroups(ctx, pe, jn, mr)
		if err != nil {
			return err
		}
		nt, np := len(touched), len(g.order)
		vals, valid := grab(&sc.vals, np*nt), grab(&sc.valid, np*nt)
		if err := e.runPlanGroup(ctx, g, pe, touched, vals, valid); err != nil {
			return err
		}
		// One slab holds every pair's projection table: slot t+1 serves
		// touched group t, slot 0 a join miss.
		proj := grab(&sc.proj, np*(nt+1))
		for pi := 0; pi < np; pi++ {
			pp := proj[pi*(nt+1) : (pi+1)*(nt+1)]
			pp[0] = projSlot{}
			for t, v := range vals[pi*nt : (pi+1)*nt] {
				// NaN aggregates are NULL, matching NewFloatColumn + Floats.
				if valid[pi*nt+t] && !math.IsNaN(v) {
					pp[t+1] = projSlot{v: v, ok: true}
				} else {
					pp[t+1] = projSlot{}
				}
			}
		}

		// Column fills: pure sequential streams off the shared row map, with
		// the miss/NULL branches pre-folded into the projection tables. The
		// context is observed per (column, morsel), so a huge single-group
		// batch still cancels inside the batch loop.
		for pi, slots := range g.slots {
			pp := proj[pi*(nt+1) : (pi+1)*(nt+1)]
			cv, cok := m.Col(slots[0])
			for lo := 0; lo < n; lo += mr {
				if err := ctx.Err(); err != nil {
					return err
				}
				for row := lo; row < min(lo+mr, n); row++ {
					p := pp[rowLocal[row]]
					cv[row] = p.v
					cok[row] = p.ok
				}
			}
			for _, slot := range slots[1:] {
				mv, mok := m.Col(slot)
				copy(mv, cv)
				copy(mok, cok)
			}
		}

		e.mu.Lock()
		e.stats.ScatterPasses++
		e.stats.ScatterQueries += int64(g.nqueries)
		e.stats.MorselsScanned += morsels
		e.mu.Unlock()
		return nil
	})
}

// touchedGroups resolves d's rows through the join entry's row map to the
// plan group's local groups, walking d morsel by morsel and observing the
// context at each boundary. touched lists each local group some row joins,
// in order of first join over d's rows; rowLocal[row] is the 1-based
// position in touched of the row's local group, 0 on a join miss or a group
// empty under the plan's mask. The cost is O(rows(d)): sc.mark dedupes local
// groups and is reset entry by entry afterwards, so no O(plan groups) array
// is cleared per call. Both slices are backed by sc and valid until its next
// use; morsels counts the morsels walked.
func (sc *scatterScratch) touchedGroups(ctx context.Context, pe *planEntry, jn *joinEntry, mr int) ([]int, []int32, int64, error) {
	if len(sc.mark) < len(pe.counts) {
		sc.mark = make([]int32, len(pe.counts))
	}
	mark := sc.mark
	n := len(jn.rowToR)
	rowLocal := grab(&sc.rowLocal, n)
	touched := sc.touched[:0]
	var morsels int64
	var err error
	for lo := 0; lo < n; lo += mr {
		if err = ctx.Err(); err != nil {
			break
		}
		morsels++
		for row := lo; row < min(lo+mr, n); row++ {
			rg := jn.rowToR[row]
			if rg < 0 || rg >= len(pe.local) || pe.local[rg] == 0 {
				rowLocal[row] = 0
				continue
			}
			li := pe.local[rg] - 1
			t := mark[li]
			if t == 0 {
				touched = append(touched, li)
				t = int32(len(touched))
				mark[li] = t
			}
			rowLocal[row] = t
		}
	}
	for _, li := range touched {
		mark[li] = 0
	}
	sc.touched = touched
	return touched, rowLocal, morsels, err
}
