package serve

import (
	"sync/atomic"

	"repro/internal/query"
)

// planCounters is the serve-side counter block of one plan handle. Counters
// live on the handle, not the swappable state, so a hot-swap never resets
// them; executor counters are read from whichever transformer currently
// serves (every executor over a bound table shares the scan state that
// table owns, so the engine-side story stays coherent across swaps).
type planCounters struct {
	requests         atomic.Int64
	rows             atomic.Int64
	soloBatches      atomic.Int64
	coalescedBatches atomic.Int64
	coalescedRows    atomic.Int64
	rejected         atomic.Int64
	appends          atomic.Int64
	appendedRows     atomic.Int64
}

// PlanStats is the /v1/stats snapshot of one served plan: serve-side
// counters merged with the current transformer's executor counters.
type PlanStats struct {
	Plan    string `json:"plan"`
	Version int64  `json:"version"`
	// Requests and Rows count admitted transform requests and their rows.
	Requests int64 `json:"requests"`
	Rows     int64 `json:"rows"`
	// SoloBatches counts AugmentMatrix passes that served one request;
	// CoalescedBatches counts passes that fused two or more, covering
	// CoalescedRows rows in total.
	SoloBatches      int64 `json:"solo_batches"`
	CoalescedBatches int64 `json:"coalesced_batches"`
	CoalescedRows    int64 `json:"coalesced_rows"`
	// RejectedRequests counts admission-control rejections (429s).
	RejectedRequests int64 `json:"rejected_requests"`
	// SwapCount counts successful hot-swaps since boot.
	SwapCount int64 `json:"swap_count"`
	// Appends counts absorbed append batches, totalling AppendedRows rows;
	// TableEpoch is the bound relevant table's current append epoch (0 for
	// multi-source plans, whose tables stay append-free).
	Appends      int64  `json:"appends"`
	AppendedRows int64  `json:"appended_rows"`
	TableEpoch   uint64 `json:"table_epoch"`
	// TableBytes is the estimated resident footprint of the bound relevant
	// table(s) — summed across sources for multi-source plans. Binding
	// compacts the string columns (code-backed), so they count one 2-byte
	// code per cell instead of ~16+len(s) bytes; an append that pushes a
	// column past the dictionary cap rematerialises it, and shows up here as
	// the strings coming back.
	TableBytes int64 `json:"table_bytes"`
	// Executor is the current transformer's engine-side counter snapshot
	// (for multi-table plans, merged across the per-source executors).
	Executor query.ExecutorStats `json:"executor"`
}

// Stats is the full /v1/stats snapshot: one PlanStats per plan, name order.
type Stats struct {
	Plans []PlanStats `json:"plans"`
}

func (h *planHandle) snapshot() PlanStats {
	st := h.state.Load()
	var tableEpoch uint64
	var tableBytes int64
	// Every bound table is read under its own epoch fence (query.MemBytes).
	if h.binding.Relevant != nil {
		tableEpoch = h.binding.Relevant.Epoch()
		tableBytes = query.MemBytes(h.binding.Relevant)
	}
	for _, t := range h.binding.Sources {
		tableBytes += query.MemBytes(t)
	}
	return PlanStats{
		Plan:             h.name,
		Version:          st.version,
		Requests:         h.counters.requests.Load(),
		Rows:             h.counters.rows.Load(),
		SoloBatches:      h.counters.soloBatches.Load(),
		CoalescedBatches: h.counters.coalescedBatches.Load(),
		CoalescedRows:    h.counters.coalescedRows.Load(),
		RejectedRequests: h.counters.rejected.Load(),
		SwapCount:        h.swaps.Load(),
		Appends:          h.counters.appends.Load(),
		AppendedRows:     h.counters.appendedRows.Load(),
		TableEpoch:       tableEpoch,
		TableBytes:       tableBytes,
		Executor:         st.tr.Stats(),
	}
}
