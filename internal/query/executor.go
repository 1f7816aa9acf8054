package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataframe"
)

// Executor evaluates queries against one relevant table through a stack of
// caches that exploit how the TPE / successive-halving searches revisit the
// same pool:
//
//   - a dataframe.GroupIndex per key-set, so queries sharing GROUP BY keys
//     (all queries of a template pool do, up to the key-subset dimension)
//     never regroup the table through string row-keys again;
//   - a row bitmap per predicate, keyed on the predicate's canonical
//     encoding. Predicates are drawn from the Space's small discrete pools
//     and are heavily reused across queries, so a query's WHERE mask is the
//     word-wise intersection of cached bitmaps instead of a full-table
//     re-evaluation;
//   - a combined-mask entry per canonical WHERE clause, holding both the
//     intersected bitmap and the materialised matching-row list, so a
//     cached mask never re-walks its bitmap;
//   - a plan-group entry per (key-set, WHERE-mask) pair caching the
//     group-discovery result (local / counts), so any later query —
//     or whole batch — on the same plan group skips discovery entirely;
//   - a prepared batch (Prepared) holding its plan groups, their static
//     layouts and their plan entries across passes, so a fixed batch run
//     again and again — a served plan — skips the lookups above and the
//     per-pass organisation as well. Its snapshot is
//     stamped with the plan generation, which rises whenever a plan entry
//     leaves the plan map; a stale snapshot is prepared again.
//
// The table-scoped caches (group indexes, bitmaps, masks, integer probes)
// live in the table's own tableCore (see core.go), shared by every
// executor over the table, so they run each table pass once between them.
// Scans walk the table morsel by morsel (morselSegments), observing
// cancellation at every boundary.
//
// On top of the caches, every pass runs fused: a batch is prepared, then run
// — grouped by plan group, each group's aggregates streaming through shared
// scans instead of one two-pass scan per query (see fused.go) — and its
// features land in one FeatureMatrix joined onto a training table, the
// executor's only output. A lone query is a batch of one, so the search
// loop's one-candidate-at-a-time calls reuse plan groups and retained
// aggregate state like any batch. All methods are safe for concurrent use;
// batches evaluate on a bounded worker pool.
type Executor struct {
	r          *dataframe.Table
	core       *tableCore // r's scan-side caches, shared with every executor over r
	morselRows int        // rows per morsel of plan and scatter scans (tests set it)
	// Parallelism bounds the batch worker pool; 0 means GOMAXPROCS.
	Parallelism int

	// epoch is the scan-table epoch this executor's PRIVATE caches (plans,
	// joins, aggregate state) cover; the table's core tracks its own. Guarded
	// by core.fence.
	epoch uint64

	mu    sync.Mutex
	plans map[planKey]*planEntry
	joins map[string]*joinEntry // key-set -> join onto the last training table
	stats ExecutorStats

	// planGen is the plan generation: it rises whenever an entry leaves
	// plans, which makes every Prepared snapshot stamped before it stale.
	planGen atomic.Uint64
}

// ExecutorStats is a point-in-time snapshot of the executor's cache and scan
// counters, for perf observability (cmd/feataug -v surfaces it). Hits count
// lookups that found an existing entry; misses count entry creations;
// Evictions counts whole-cache drops of the bounded caches.
type ExecutorStats struct {
	GroupHits, GroupMisses int64 // per-key-set group indexes
	PredHits, PredMisses   int64 // per-predicate bitmaps
	MaskHits, MaskMisses   int64 // combined WHERE masks (bitmap + row list)
	PlanHits, PlanMisses   int64 // plan-group discovery results
	JoinHits, JoinMisses   int64 // train-side join entries, once per key set per pass (see joinIndex)
	FusedScans             int64 // shared scans run by the fused batch path
	FusedQueries           int64 // queries answered through a fused plan group
	// CoreQueries is no longer incremented: every query, single or batched,
	// runs through a fused plan group and counts in FusedQueries. It stays
	// for snapshot readers that still report it.
	CoreQueries int64
	// Train-side scatter: full passes over the training table's rows vs
	// feature columns served by them. The fused scatter runs one pass per
	// (plan group, training table) writing every column of the group in the
	// same loop, so ScatterQueries / ScatterPasses is the sharing factor
	// (1.0 = every plan group serves one column).
	ScatterPasses, ScatterQueries int64
	// CodePredScans counts predicate bitmaps built through the branch-free
	// kernels (string equality over uint16 dictionary codes, int/time ranges
	// over exact int64 bounds; see dict.go) instead of the row-at-a-time
	// comparison loops.
	CodePredScans int64
	// CountOnlyQueries counts the fused COUNT queries served straight from
	// the plan's group counts with no value pass at all (one per query, as
	// FusedQueries counts).
	CountOnlyQueries int64
	// SharedScanPasses counts the full-table passes this executor paid to
	// build a core entry (group index, predicate bitmap, integer probe). Int,
	// time and bool columns are read in place, with no view to build, so
	// reading one costs no pass. The core belongs to the table, so k
	// executors over one table pay one set of passes between them.
	SharedScanPasses int64
	// MorselsScanned counts the morsel segments the executor's scans walked
	// (discovery, attribute and scatter passes all run morsel by morsel).
	MorselsScanned int64
	Evictions      int64 // whole-cache drops across bounded caches
	// Delta maintenance (see delta.go): DeltaAppends counts append epochs
	// this executor absorbed, DeltaRowsScanned the appended rows its advance
	// scans visited (summed across the entries each advance touched), and
	// DirtyGroupResorts the per-group sorted runs re-sorted because a delta
	// landed in the group.
	DeltaAppends, DeltaRowsScanned int64
	DirtyGroupResorts              int64
	// FullRebuilds is never set: every advance extends its entries in place,
	// a dictionary cap crossing included. It stays for snapshot readers that
	// still report it.
	FullRebuilds int64
}

// Add returns the field-wise sum of two snapshots. Multi-table transformers
// run one executor per relevant table and report the merged counters.
func (s ExecutorStats) Add(o ExecutorStats) ExecutorStats {
	s.GroupHits += o.GroupHits
	s.GroupMisses += o.GroupMisses
	s.PredHits += o.PredHits
	s.PredMisses += o.PredMisses
	s.MaskHits += o.MaskHits
	s.MaskMisses += o.MaskMisses
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.JoinHits += o.JoinHits
	s.JoinMisses += o.JoinMisses
	s.FusedScans += o.FusedScans
	s.FusedQueries += o.FusedQueries
	s.CoreQueries += o.CoreQueries
	s.ScatterPasses += o.ScatterPasses
	s.ScatterQueries += o.ScatterQueries
	s.CodePredScans += o.CodePredScans
	s.CountOnlyQueries += o.CountOnlyQueries
	s.SharedScanPasses += o.SharedScanPasses
	s.MorselsScanned += o.MorselsScanned
	s.Evictions += o.Evictions
	s.DeltaAppends += o.DeltaAppends
	s.DeltaRowsScanned += o.DeltaRowsScanned
	s.DirtyGroupResorts += o.DirtyGroupResorts
	s.FullRebuilds += o.FullRebuilds
	return s
}

// String renders the snapshot as one compact log line.
func (s ExecutorStats) String() string {
	return fmt.Sprintf(
		"groups %d/%d masks %d/%d preds %d/%d plans %d/%d joins %d/%d (hit/miss), fused %d queries (%d count-only) over %d scans, scatter %d queries over %d passes, %d code preds, shared-scans %d passes, %d morsels, delta %d appends / %d rows (%d resorts), %d evictions",
		s.GroupHits, s.GroupMisses, s.MaskHits, s.MaskMisses, s.PredHits, s.PredMisses,
		s.PlanHits, s.PlanMisses, s.JoinHits, s.JoinMisses,
		s.FusedQueries, s.CountOnlyQueries, s.FusedScans,
		s.ScatterQueries, s.ScatterPasses,
		s.CodePredScans,
		s.SharedScanPasses, s.MorselsScanned,
		s.DeltaAppends, s.DeltaRowsScanned, s.DirtyGroupResorts,
		s.Evictions)
}

// Stats returns a snapshot of the executor's counters.
func (e *Executor) Stats() ExecutorStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Cache bounds. Entries are pure caches, so when a bound is hit the whole map
// is dropped: in-flight holders keep
// their references, and a dropped entry costs only its rediscovery. The search
// workload does reach the plan bound: `feataug -fit student -rows 150 -seed 1
// -v` makes ~510-530 plan misses against maxPlanEntries and 1-2 evictions.
// With templates searched concurrently the counts vary from run to run at
// GOMAXPROCS > 1, while the fitted plan stays identical. Entry counts do not
// bound memory on large tables; a byte budget is an open roadmap item.
const (
	maxPredEntries = 2048
	maxMaskEntries = 512
	maxPlanEntries = 256
)

type groupEntry struct {
	once sync.Once
	idx  *dataframe.GroupIndex
	err  error
}

// predEntry caches the full-table row bitmap of one predicate. p and nrows
// (the predicate it evaluates and the rows the bitmap covers) make the entry
// self-describing: extendPred fills it from row zero in the once and from
// row nrows under the core's epoch fence (see delta.go).
type predEntry struct {
	once  sync.Once
	p     Predicate
	bits  []uint64 // 1 bit per row, LSB-first within each word
	nrows int      // rows covered by bits
	err   error
}

// maskEntry caches one canonical WHERE clause: the intersected bitmap plus
// the materialised matching-row indices in ascending order, so a cached mask
// costs neither the intersection nor the bitmap walk again. preds holds the
// decomposed predicate list and nrows the coverage, from which extendMask
// fills the entry (see delta.go).
type maskEntry struct {
	once  sync.Once
	preds []Predicate // decomposed one-sided form
	bits  []uint64
	rows  []int32
	nrows int
	err   error
}

// planKey identifies a plan group: one GROUP BY key-set combined with one
// canonical WHERE-mask signature.
type planKey struct {
	keys string
	sig  string
}

// planEntry caches the pass-1 group-discovery result of one plan group: which
// groups are non-empty under the mask, in first-seen row order, and how many
// matching rows each has. Every query of the plan group — across batches —
// shares it, so only the first query ever pays the discovery scan. One
// function fills it, discover (see delta.go): the once discovers from row
// zero, and an append, under the core's epoch fence, from the rows it
// covers; all fields are read-only otherwise, except aggs, the per-attribute
// aggregate state retained across batches: an immutable map published
// through an atomic pointer and replaced copy-on-write (retain), with amu
// ordering the replacements.
type planEntry struct {
	once   sync.Once
	gi     *dataframe.GroupIndex
	me     *maskEntry // WHERE mask the rows come from; nil = all rows
	rows   []int32    // matching rows in scan order; identity list when mask-free
	segs   [][2]int   // morsel segments of rows (index ranges; see morselSegments)
	local  []int32    // gid -> local index + 1; 0 = group empty under the mask
	counts []int      // local -> total matching rows; len = non-empty groups
	nrows  int        // scan-table rows the discovery covers

	amu  sync.Mutex
	aggs atomic.Pointer[map[string]*attrState] // per aggregation attribute (see delta.go)
}

// ExecutorOption configures NewExecutor.
type ExecutorOption func(*Executor)

// WithParallelism sets the executor's Parallelism (the bound on its batch
// worker pool; 1 runs a batch's plan groups inline on the caller).
func WithParallelism(n int) ExecutorOption {
	return func(e *Executor) { e.Parallelism = n }
}

// NewExecutor builds an executor over one relevant table. Its scan-side
// caches live in the table's core, shared with every other executor over r
// and kept for as long as r lives. Outside Append and Compact, the table must
// not be mutated once an executor has been built over it (caches index into
// its rows and outlive the executor).
func NewExecutor(r *dataframe.Table, opts ...ExecutorOption) *Executor {
	e := &Executor{
		r:          r,
		core:       coreOf(r),
		morselRows: dataframe.DefaultMorselRows,
		plans:      map[planKey]*planEntry{},
		joins:      map[string]*joinEntry{},
	}
	for _, opt := range opts {
		opt(e)
	}
	// A fresh executor's (empty) private caches vacuously cover the current
	// epoch; the first scan advances the table's core if it is behind.
	e.epoch = r.Epoch()
	return e
}

// Table returns the relevant table the executor is bound to.
func (e *Executor) Table() *dataframe.Table { return e.r }

// noteShared records the outcome of one core cache lookup: hits and misses
// count as usual, and a miss whose build is a full-table pass (group index,
// predicate bitmap — not a mask intersection) counts as SharedScanPasses.
func (e *Executor) noteShared(hit, evicted bool, hits, misses *int64, pass bool) {
	e.mu.Lock()
	if hit {
		*hits++
	} else {
		*misses++
		if pass {
			e.stats.SharedScanPasses++
		}
	}
	if evicted {
		e.stats.Evictions++
	}
	e.mu.Unlock()
}

// noteScan records one shared scan over a plan group's matching rows that
// walked the given number of morsel segments.
func (e *Executor) noteScan(morsels int) {
	e.mu.Lock()
	e.stats.FusedScans++
	e.stats.MorselsScanned += int64(morsels)
	e.mu.Unlock()
}

// groupIndex returns the cached GroupIndex for a key-set, building it on
// first use; id is the key-set's identity, its names joined by \x1f (as in
// planKey.keys). Key order matters (it fixes the output column order), so
// the identity preserves it. The index lives in the core and covers the
// whole table.
func (e *Executor) groupIndex(id string, keys []string) (*dataframe.GroupIndex, error) {
	c := e.core
	c.mu.Lock()
	ent, hit, evicted := boundedGet(&c.groups, id, 1<<20,
		func() *groupEntry { return &groupEntry{} })
	c.mu.Unlock()
	e.noteShared(hit, evicted, &e.stats.GroupHits, &e.stats.GroupMisses, true)
	ent.once.Do(func() { ent.idx, ent.err = c.t.BuildGroupIndex(keys...) })
	return ent.idx, ent.err
}

// predKey is the canonical cache key of one predicate: attribute, operator
// and operand value(s), never a dictionary code, so a key keeps its meaning
// when an append drops the column's encoding at the cap. An equality keys
// only the operand the column's kind reads (Eval's rule), so spellings that
// differ in the other operand share one bitmap and one mask signature; a
// predicate the table cannot evaluate keys its string operand and errors
// later, in fillPredBits. Cheaper than Predicate.String (no fmt machinery) — it runs
// once per predicate per query on the hot path.
func (e *Executor) predKey(p Predicate) string {
	b := make([]byte, 0, len(p.Attr)+24)
	b = append(b, p.Attr...)
	switch p.Kind {
	case PredEq:
		if col := e.core.t.Column(p.Attr); col != nil && col.Kind() == dataframe.KindBool {
			if p.BoolValue {
				return string(append(b, "=b1"...))
			}
			return string(append(b, "=b0"...))
		}
		b = append(b, "=s"...)
		b = append(b, p.StrValue...)
	case PredRange:
		if p.HasLo {
			b = append(b, '>')
			b = strconv.AppendFloat(b, p.Lo, 'g', -1, 64)
		}
		if p.HasHi {
			b = append(b, '<')
			b = strconv.AppendFloat(b, p.Hi, 'g', -1, 64)
		}
	}
	return string(b)
}

// predMask returns the cached full-table row bitmap of one predicate,
// evaluating it on first use.
func (e *Executor) predMask(p Predicate) ([]uint64, error) {
	k := e.predKey(p)
	c := e.core
	c.mu.Lock()
	ent, hit, evicted := boundedGet(&c.preds, k, maxPredEntries,
		func() *predEntry { return &predEntry{} })
	c.mu.Unlock()
	e.noteShared(hit, evicted, &e.stats.PredHits, &e.stats.PredMisses, true)
	ent.once.Do(func() {
		ent.p = p
		e.extendPred(ent)
	})
	return ent.bits, ent.err
}

// fillPredBits evaluates p into bm for rows [lo, n), where lo is
// word-aligned (a multiple of 64, or 0); words below lo/64 are left untouched
// and words at or above it are (re)written. extendPred calls it with the
// start of the entry's last partially-filled word, so a new entry evaluates
// every row and an append only its own (see delta.go).
//
// The loops are kind-specialised (direct slice access instead of
// Predicate.Eval's per-row AsFloat calls), with Eval's semantics exactly:
// NULL rows never match, bounds are inclusive. String equality on a
// dictionary-encoded column resolves the operand to its code and compares
// the uint16 codes, and int/time ranges whose integer probe admits them
// compare exact integer bounds — both branch-free, word at a time (see
// dict.go). The input alone picks the fallbacks below: a string column above
// MaxDictCardinality, or a float column or an int range the probe rejects
// (|value| > 2^53), which compares each value as Column.AsFloat coerces it,
// read in place (rangeRowsFrom).
func (e *Executor) fillPredBits(p Predicate, lo int, bm []uint64) error {
	col := e.core.t.Column(p.Attr)
	if col == nil {
		return fmt.Errorf("query: predicate on missing column %q", p.Attr)
	}
	n := e.core.t.NumRows()
	set := func(i int) { bm[i>>6] |= 1 << uint(i&63) }
	valid := col.ValidData()
	switch p.Kind {
	case PredEq:
		switch col.Kind() {
		case dataframe.KindString:
			if enc := col.Dict(); enc != nil {
				e.noteCodePred()
				if code, ok := enc.CodeOf(p.StrValue); ok {
					dictEqBitsFrom(enc, code, bm, lo)
				}
				// Operand not in the dictionary: no row matches.
				return nil
			}
			// Columns above the dictionary cardinality cap compare row by row.
			for i := lo; i < n; i++ {
				if valid[i] && col.Str(i) == p.StrValue {
					set(i)
				}
			}
		case dataframe.KindBool:
			bools := col.BoolData()
			for i := lo; i < n; i++ {
				if valid[i] && bools[i] == p.BoolValue {
					set(i)
				}
			}
		default:
			return fmt.Errorf("query: equality predicate on %s column %q", col.Kind(), p.Attr)
		}
	case PredRange:
		if !col.Kind().IsNumeric() {
			return fmt.Errorf("query: range predicate on %s column %q", col.Kind(), p.Attr)
		}
		if k := col.Kind(); (p.HasLo || p.HasHi) &&
			(k == dataframe.KindInt || k == dataframe.KindTime) {
			if ip := e.intProbeFor(col); ip.intOK {
				e.noteCodePred()
				intRangeBitsFrom(ip, p, bm, lo)
				return nil
			}
		}
		if col.Kind() == dataframe.KindFloat {
			rangeRowsFrom(col.FloatData(), valid, p, lo, bm)
		} else {
			rangeRowsFrom(col.IntData(), valid, p, lo, bm)
		}
	default:
		return fmt.Errorf("query: unknown predicate kind %d", p.Kind)
	}
	return nil
}

// rangeRowsFrom is fillPredBits' row-at-a-time range loop over rows
// [lo, len(vals)) of a float column, or of an int/time column whose values
// the integer probe rejects: each value is compared as float64(v), the
// coercion Column.AsFloat applies, with Eval's semantics (NULL rows never
// match, bounds are inclusive, a range with no bound matches every non-NULL
// row).
func rangeRowsFrom[T int64 | float64](vals []T, valid []bool, p Predicate, lo int, bm []uint64) {
	for i := lo; i < len(vals); i++ {
		if v := float64(vals[i]); valid[i] && (!p.HasLo || v >= p.Lo) && (!p.HasHi || v <= p.Hi) {
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
}

// decomposePreds rewrites a predicate list into its canonical one-sided form:
// two-sided ranges split into their one-sided halves before the cache lookup.
// A pool discretised over g grid points yields ~g² distinct (lo, hi) pairs
// per attribute but only ~2g one-sided bounds, so the bitmap cache converges
// after a handful of misses instead of one per bound pair. The intersection
// is exact — a NULL row fails both halves, matching SQL three-valued logic
// just like the combined predicate. A NaN bound is dropped first: every
// comparison with NaN is false, so Predicate.Eval never rejects a row on it,
// and the range takes the same path as one without that bound.
func decomposePreds(preds []Predicate) []Predicate {
	out := make([]Predicate, 0, len(preds)+2)
	for _, p := range preds {
		if p.Kind == PredRange {
			if p.HasLo && math.IsNaN(p.Lo) {
				p.HasLo, p.Lo = false, 0
			}
			if p.HasHi && math.IsNaN(p.Hi) {
				p.HasHi, p.Hi = false, 0
			}
			if p.HasLo && p.HasHi {
				out = append(out,
					Predicate{Attr: p.Attr, Kind: PredRange, HasLo: true, Lo: p.Lo},
					Predicate{Attr: p.Attr, Kind: PredRange, HasHi: true, Hi: p.Hi})
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// maskSig is the canonical identity of a WHERE clause: the sorted,
// deduplicated kind-aware cache keys (predKey) of its decomposed predicates.
// Queries whose predicate sets select the same rows by construction —
// reordered conjuncts, a BETWEEN spelled as two one-sided ranges, equality
// spellings that differ only in the operand the column does not read —
// share a signature and therefore a mask entry and a plan group. The empty signature means "all
// rows".
func (e *Executor) maskSig(preds []Predicate) string {
	if len(preds) == 0 {
		return ""
	}
	keys := make([]string, 0, len(preds)+2)
	for _, p := range decomposePreds(preds) {
		keys = append(keys, e.predKey(p))
	}
	sort.Strings(keys)
	uniq := keys[:1]
	for _, k := range keys[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	return strings.Join(uniq, "\x1e")
}

// whereEntry returns the cached combined mask of a predicate list whose
// signature (maskSig) is sig — bitmap plus matching-row indices — filling it
// from row zero (extendMask) on first use. The empty signature returns
// (nil, nil): all rows.
func (e *Executor) whereEntry(sig string, preds []Predicate) (*maskEntry, error) {
	if sig == "" {
		return nil, nil
	}
	c := e.core
	c.mu.Lock()
	ent, hit, evicted := boundedGet(&c.masks, sig, maxMaskEntries,
		func() *maskEntry { return &maskEntry{} })
	c.mu.Unlock()
	// Mask intersection is bitmap arithmetic, not a table pass (pass=false).
	e.noteShared(hit, evicted, &e.stats.MaskHits, &e.stats.MaskMisses, false)
	ent.once.Do(func() {
		ent.preds = decomposePreds(preds)
		e.extendMask(ent)
	})
	return ent, ent.err
}

// plan returns the cached plan-group entry for (keys, preds), whose plan key
// (groupBatch) is pk, running the group-discovery scan on first use: the
// non-empty groups under the WHERE mask in first-seen order over the matching
// rows, with total matching rows per group. Later queries on the same plan
// group — from any batch — skip straight to their value passes. The row list
// is pre-split into morsel segments, the unit every downstream scan walks. It
// counts its own hits, misses and evictions, and a whole-map drop at the
// bound raises the plan generation.
func (e *Executor) plan(pk planKey, keys []string, preds []Predicate) (*planEntry, error) {
	gi, err := e.groupIndex(pk.keys, keys)
	if err != nil {
		return nil, err
	}
	me, err := e.whereEntry(pk.sig, preds)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	ent, hit, evicted := boundedGet(&e.plans, pk, maxPlanEntries,
		func() *planEntry { return &planEntry{} })
	if hit {
		e.stats.PlanHits++
	} else {
		e.stats.PlanMisses++
	}
	if evicted {
		e.stats.Evictions++
		e.planGen.Add(1)
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.gi, ent.me = gi, me
		ent.discover(e)
		e.noteScan(len(ent.segs))
	})
	return ent, nil
}

// joinEntry caches the training-table side of a pass's join for one
// (training table, key-set) pair: each training row's relevant-side group,
// resolved through the relevant index's key map (GroupIndex.LookupRow) with
// LeftJoin's key equality. With it, joining a query's feature onto the
// training table is pure integer indexing — the per-query re-hash of the
// whole training table that LeftJoin would do is paid once per key-set
// instead, and the probe allocates nothing.
type joinEntry struct {
	once   sync.Once
	d      *dataframe.Table    // training table the entry joins
	epoch  uint64              // d's epoch when the entry was built
	id     string              // join key-set identity (for delta advances)
	keys   []string            // join key-set
	cols   []*dataframe.Column // d's key columns
	rowToR []int32             // training row -> relevant gid, -1 = no match
	err    error
}

// joinIndex returns the join entry of d on the key-set keys, whose join-map
// key (the names joined by \x1f) is id; keys must not be modified afterwards.
// A pass resolves each of its key sets once, before its plan groups run, and
// hands the entry to every group on that key set, so JoinHits and JoinMisses
// count once per key set per pass. The executor keeps one entry per key-set,
// for the training table it last joined: an evaluator joins its one training
// table on every pass and always hits, while a served pass's request table,
// which no later pass sees, replaces the entry instead of accumulating next
// to it. An entry hits only at the epoch of d it was built at: rows appended
// to d since then have no entry, so a grown d is joined again. A miss probes
// the relevant index once per row of d: O(rows(d)), which the pass's scatter
// walks anyway.
func (e *Executor) joinIndex(d *dataframe.Table, id string, keys []string) (*joinEntry, error) {
	epoch := d.Epoch()
	e.mu.Lock()
	ent := e.joins[id]
	if ent != nil && ent.d == d && ent.epoch == epoch {
		e.stats.JoinHits++
	} else {
		e.stats.JoinMisses++
		ent = &joinEntry{d: d, epoch: epoch, id: id, keys: keys}
		e.joins[id] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.cols, ent.err = resolve(d, keys)
		if ent.err != nil {
			return
		}
		rIdx, err := e.groupIndex(id, keys)
		if err != nil {
			ent.err = err
			return
		}
		ent.rowToR = make([]int32, d.NumRows())
		for row := range ent.rowToR {
			if rg, ok := rIdx.LookupRow(ent.cols, row); ok {
				ent.rowToR[row] = rg
			} else {
				ent.rowToR[row] = -1
			}
		}
	})
	return ent, ent.err
}

// scatterScratch holds a plan group's per-pass working set in the fused
// scatter — the touched list and marks, the per-row local map, the pair
// result slab and the projection slab — recycled through a pool so a warm
// plan group allocates nothing per use.
type scatterScratch struct {
	touched  []int32
	mark     []int32 // local group -> touched position + 1; all zero between uses
	rowLocal []int32
	vals     []float64
	valid    []bool
	proj     []projSlot
}

// grab returns a length-n slice backed by *buf, growing it as needed;
// contents are unspecified (callers overwrite every slot).
func grab[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	return (*buf)[:n]
}

var scatterPool = sync.Pool{New: func() interface{} { return &scatterScratch{} }}

// AugmentMatrix evaluates a batch of queries and left-joins every feature
// onto training table d's rows, mirroring Query.Augment column by column:
// NULL on join miss, vals zeroed at NULL positions (Column.Floats'
// convention), one column per query in input order, all in one column-major
// FeatureMatrix. It is a Prepare followed by one pass; a lone query is a
// batch of one. Plan groups not yet started when ctx is cancelled are
// skipped and the context error is returned, so a long batch aborts after at
// most the in-flight scans.
func (e *Executor) AugmentMatrix(ctx context.Context, d *dataframe.Table, qs []Query) (*FeatureMatrix, error) {
	p, err := e.Prepare(qs)
	if err != nil {
		return nil, err
	}
	return p.AugmentMatrix(ctx, d)
}

// AugmentMatrix runs one pass of the prepared batch against training table
// d (see Executor.AugmentMatrix).
func (p *Prepared) AugmentMatrix(ctx context.Context, d *dataframe.Table) (*FeatureMatrix, error) {
	for _, q := range p.qs {
		for _, k := range q.Keys {
			if !d.HasColumn(k) {
				return nil, fmt.Errorf("%s: query: training table has no join key %q", q.SQL("R"), k)
			}
		}
	}
	defer p.e.beginScan()()
	m := newFeatureMatrix(d.NumRows(), len(p.qs))
	if err := p.augment(ctx, d, m); err != nil {
		return nil, err
	}
	return m, nil
}
