// Package serve is the online half the paper never reaches: a long-lived
// feature-serving layer over fitted FeatAug plans. A Server holds one warm
// transformer per named plan — each wired to the process-level join cache
// and scan scheduler, so the engine state the fit warmed stays hot — and
// serves entity feature lookups over HTTP. The core primitive is request
// coalescing by group commit (coalesce.go): each plan runs up to GOMAXPROCS
// fused AugmentMatrix passes at once, a request that finds a pass slot free
// starts a pass at once, and requests arriving while every slot is busy ride
// the next pass to finish together — no timer, so a lone request pays only
// its own pass, and a warm pass costs in proportion to the request rows it
// serves. Around it:
// bounded-in-flight admission control (typed 429), capped request bodies
// (typed 413), atomic plan hot-swap with drain-on-old semantics, a stats
// endpoint merging serve-side counters with engine ExecutorStats, and
// graceful drain for shutdown.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataframe"
	"repro/internal/feataug"
	"repro/internal/query"
)

// Transformer is the serving-side view of a bound feature plan. Both
// feataug.Transformer and feataug.MultiTransformer satisfy it.
type Transformer interface {
	// Matrix materialises the plan's features for d as one columnar matrix,
	// columns in FeatureNames order.
	Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error)
	// FeatureNames lists the output feature columns, in matrix order.
	FeatureNames() []string
	// RequiredKeys lists the join-key columns request rows must carry.
	RequiredKeys() []string
	// Stats snapshots the transformer's executor counters.
	Stats() query.ExecutorStats
}

// Config tunes a Server. Zero values select serving defaults.
type Config struct {
	// MaxBatchRows caps the rows of one coalesced pass: requests queued
	// behind a running pass join the next one whole while they fit, and the
	// rest wait for the pass after. A request larger than the cap runs alone;
	// 1 gives every request a pass of its own. 0 selects DefaultMaxBatchRows.
	MaxBatchRows int
	// MaxInflightRows bounds the rows a plan may hold in flight (admitted
	// but unanswered); requests beyond it are rejected with ErrOverloaded.
	// 0 selects DefaultMaxInflightRows.
	MaxInflightRows int
	// Logf, when non-nil, receives serving log lines. Printf-style.
	Logf func(format string, args ...interface{})
}

// Serving defaults: 256 rows keeps a fused pass's scatter output comfortably
// cache-sized; 4096 in-flight rows bounds memory under overload.
const (
	DefaultMaxBatchRows    = 256
	DefaultMaxInflightRows = 4096
)

func (c Config) normalized() Config {
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = DefaultMaxBatchRows
	}
	if c.MaxInflightRows <= 0 {
		c.MaxInflightRows = DefaultMaxInflightRows
	}
	return c
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// PlanBinding names the relevant table(s) a plan binds against. Exactly one
// field is set: Relevant for single-table FeaturePlans, Sources for
// MultiFeaturePlans. The binding is fixed per plan name at AddPlan time and
// reused by every hot-swap of that name — a swap replaces the plan, not the
// data it serves from.
type PlanBinding struct {
	Relevant *dataframe.Table
	Sources  map[string]*dataframe.Table
}

// planState is the swappable half of a served plan: one bound transformer
// plus everything derived from it. Hot-swap builds a fresh state and swaps
// the pointer; requests that loaded the old state drain on it.
type planState struct {
	version  int64
	tr       Transformer
	co       *coalescer
	spec     []keyCol
	features []string
	keys     []string
	layout   *responseLayout
}

// planHandle is the per-name constant half: binding, counters and the state
// pointer. Counters survive swaps.
type planHandle struct {
	name     string
	binding  PlanBinding
	state    atomic.Pointer[planState]
	counters planCounters
	inflight atomic.Int64
	versions atomic.Int64
	swaps    atomic.Int64
}

// Server serves fitted feature plans over HTTP. Construct with NewServer,
// add plans with AddPlan, expose Handler on an http.Server, and call Drain
// on shutdown.
type Server struct {
	cfg      Config
	mu       sync.Mutex
	plans    map[string]*planHandle
	wg       sync.WaitGroup
	draining atomic.Bool
}

// NewServer builds an empty server.
func NewServer(cfg Config) *Server {
	return &Server{cfg: cfg.normalized(), plans: map[string]*planHandle{}}
}

// AddPlan decodes planJSON (a FeaturePlan if binding.Relevant is set, a
// MultiFeaturePlan if binding.Sources is) and starts serving it under name.
// The bound executors are wired to the process-level JoinCache and
// ScanScheduler, so every plan over the same relevant tables shares warm
// scan state. Fails with feataug's typed errors on bad plans (ErrPlanCorrupt,
// ErrPlanVersion, ErrSchemaMismatch, ...).
func (s *Server) AddPlan(name string, planJSON []byte, binding PlanBinding) error {
	if name == "" {
		return fmt.Errorf("serve: empty plan name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.plans[name]; ok {
		return fmt.Errorf("serve: plan %q already added (hot-swap via POST /v1/plans/%s)", name, name)
	}
	h := &planHandle{name: name, binding: binding}
	st, err := s.buildState(h, planJSON)
	if err != nil {
		return err
	}
	h.state.Store(st)
	s.plans[name] = h
	s.cfg.logf("serve: plan %q v%d: %d features over keys %v", name, st.version, len(st.features), st.keys)
	return nil
}

// buildState binds plan bytes against the handle's tables into a fresh
// planState with the next version number. It never touches the current
// state: a bind failure leaves whatever is serving untouched.
func (s *Server) buildState(h *planHandle, planJSON []byte) (*planState, error) {
	tr, tables, err := bindPlan(planJSON, h.binding)
	if err != nil {
		return nil, err
	}
	keys := tr.RequiredKeys()
	spec, err := requestSchema(keys, tables...)
	if err != nil {
		return nil, err
	}
	st := &planState{
		version:  h.versions.Add(1),
		tr:       tr,
		spec:     spec,
		features: tr.FeatureNames(),
		keys:     keys,
	}
	st.layout = newResponseLayout(h.name, st.version, st.features)
	st.co = newCoalescer(tr, s.cfg.MaxBatchRows, func(waiters, rows int) {
		if waiters > 1 {
			h.counters.coalescedBatches.Add(1)
			h.counters.coalescedRows.Add(int64(rows))
		} else {
			h.counters.soloBatches.Add(1)
		}
	})
	return st, nil
}

// bindPlan decodes and binds plan bytes under a binding, returning the
// transformer and the tables key kinds resolve against. Every executor is
// wired to the process-level caches: a serving process holds plans for the
// long haul, so scan state shared across plans (and with any in-process fit)
// is exactly what we want. Every executor also runs a pass's plan groups
// inline: the coalescer already runs up to GOMAXPROCS passes at once, and a
// worker pool inside each pass would only oversubscribe the CPUs and pay a
// fresh goroutine per plan group.
func bindPlan(planJSON []byte, binding PlanBinding) (Transformer, []*dataframe.Table, error) {
	procOpts := []query.ExecutorOption{
		query.WithJoinCache(query.ProcessJoinCache()),
		query.WithScanScheduler(query.ProcessScanScheduler()),
		query.WithParallelism(1),
	}
	if binding.Sources != nil {
		mp, err := feataug.DecodeMultiPlan(planJSON)
		if err != nil {
			return nil, nil, err
		}
		tr, err := mp.Transformer(binding.Sources, procOpts...)
		if err != nil {
			return nil, nil, err
		}
		tables := make([]*dataframe.Table, 0, len(mp.Sources))
		for _, src := range mp.Sources {
			tables = append(tables, binding.Sources[src.Name])
		}
		return tr, encodeDicts(tables), nil
	}
	if binding.Relevant == nil {
		return nil, nil, fmt.Errorf("serve: binding has neither Relevant nor Sources")
	}
	p, err := feataug.DecodePlan(planJSON)
	if err != nil {
		return nil, nil, err
	}
	tr, err := p.Transformer(binding.Relevant, procOpts...)
	if err != nil {
		return nil, nil, err
	}
	return tr, encodeDicts([]*dataframe.Table{binding.Relevant}), nil
}

// encodeDicts eagerly dictionary-encodes the bound tables' string columns
// (dataframe.Table.EncodeDicts), so a freshly added or swapped plan pays its
// encode passes at bind time instead of on the first serving request.
func encodeDicts(tables []*dataframe.Table) []*dataframe.Table {
	for _, t := range tables {
		t.EncodeDicts()
	}
	return tables
}

// Swap hot-swaps plan name to new plan bytes: the fresh state binds first,
// then replaces the serving state atomically. Requests already queued on the
// outgoing state drain on the old transformer through its running pass. On
// any bind error the old state keeps serving untouched.
func (s *Server) Swap(name string, planJSON []byte) (version int64, err error) {
	s.mu.Lock()
	h, ok := s.plans[name]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownPlan, name)
	}
	st, err := s.buildState(h, planJSON)
	if err != nil {
		return 0, err
	}
	old := h.state.Swap(st)
	h.swaps.Add(1)
	s.cfg.logf("serve: plan %q swapped v%d -> v%d", name, old.version, st.version)
	return st.version, nil
}

// Transform serves one typed request table against plan name — the library
// entry point the HTTP handler wraps. It admits the request against the
// plan's in-flight row budget, hands it to the coalescer (its own pass at
// once on an idle plan, else the next pass), and returns the scattered
// feature matrix (columns in the plan's FeatureNames order)
// with whether the rows rode a fused multi-request pass.
func (s *Server) Transform(ctx context.Context, name string, tbl *dataframe.Table) (*query.FeatureMatrix, bool, error) {
	s.mu.Lock()
	h, ok := s.plans[name]
	s.mu.Unlock()
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownPlan, name)
	}
	m, _, coalesced, err := s.transformOn(ctx, h, h.state.Load(), tbl)
	return m, coalesced, err
}

// Append absorbs a batch of relevant-table rows into plan name's bound table
// — the streaming ingest path (PR 9). The append runs through the
// process-level scan scheduler's epoch fence, so it waits out in-flight
// transform passes of every plan bound to the same table, and those plans'
// caches advance incrementally over the delta rows on their next request: no
// rebind, no swap, no full recompute. Single-table plans only (a multi-source
// plan doesn't say which source the rows target). Returns the table's
// post-append epoch and total row count.
func (s *Server) Append(name string, batch *dataframe.Table) (epoch uint64, tableRows int, err error) {
	s.mu.Lock()
	h, ok := s.plans[name]
	s.mu.Unlock()
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownPlan, name)
	}
	if s.draining.Load() {
		return 0, 0, ErrDraining
	}
	if h.binding.Relevant == nil {
		return 0, 0, fmt.Errorf("%w: plan %q binds multiple sources; append serves single-table plans", ErrBadRequest, name)
	}
	epoch, tableRows, err = query.ProcessScanScheduler().AppendStats(h.binding.Relevant, batch)
	if err != nil {
		return epoch, tableRows, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	h.counters.appends.Add(1)
	h.counters.appendedRows.Add(int64(batch.NumRows()))
	s.cfg.logf("serve: plan %q absorbed %d rows (epoch %d, %d total)", name, batch.NumRows(), epoch, tableRows)
	return epoch, tableRows, nil
}

// Stats snapshots every plan's serve-side and executor counters, name order.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	handles := make([]*planHandle, 0, len(s.plans))
	for _, h := range s.plans {
		handles = append(handles, h)
	}
	s.mu.Unlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].name < handles[j].name })
	out := Stats{Plans: make([]PlanStats, len(handles))}
	for i, h := range handles {
		out.Plans[i] = h.snapshot()
	}
	return out
}

// Drain stops admitting requests and waits for in-flight requests to finish;
// queued requests complete through the passes already running ahead of them.
// Call it after http.Server.Shutdown has stopped new connections.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.wg.Wait()
}

// Handler returns the server's HTTP API:
//
//	GET  /v1/healthz                    — liveness ("ok" / "draining")
//	GET  /v1/plans                      — served plans with version/keys/features
//	POST /v1/plans/{name}/transform     — entity feature lookup (rows of join keys)
//	POST /v1/plans/{name}/append        — absorb relevant-table rows (full schema, nulls allowed)
//	POST /v1/plans/{name}               — hot-swap the named plan to the posted plan JSON
//	GET  /v1/stats                      — serve counters merged with executor stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/plans", s.handlePlans)
	mux.HandleFunc("POST /v1/plans/{name}/transform", s.handleTransform)
	mux.HandleFunc("POST /v1/plans/{name}/append", s.handleAppend)
	mux.HandleFunc("POST /v1/plans/{name}", s.handleSwap)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	type planInfo struct {
		Plan     string   `json:"plan"`
		Version  int64    `json:"version"`
		Keys     []string `json:"keys"`
		Features []string `json:"features"`
	}
	s.mu.Lock()
	infos := make([]planInfo, 0, len(s.plans))
	for _, h := range s.plans {
		st := h.state.Load()
		infos = append(infos, planInfo{Plan: h.name, Version: st.version, Keys: st.keys, Features: st.features})
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Plan < infos[j].Plan })
	writeJSON(w, http.StatusOK, map[string]interface{}{"plans": infos})
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	h, ok := s.plans[name]
	s.mu.Unlock()
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", ErrUnknownPlan, name))
		return
	}
	// The state loaded here types the request rows AND serves them: a swap
	// landing mid-request drains this request on the state it decoded under.
	st := h.state.Load()
	body, err := readBody(w, r, "reading transform rows")
	if err != nil {
		writeError(w, err)
		return
	}
	tbl, err := decodeRows(body, st.spec, s.cfg.MaxInflightRows)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			h.counters.rejected.Add(1)
		}
		writeError(w, err)
		return
	}
	m, served, coalesced, err := s.transformOn(r.Context(), h, st, tbl)
	if err != nil {
		writeError(w, err)
		return
	}
	resp, err := served.layout.encode(m, coalesced)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, resp)
}

// transformOn is Transform with the handle and state already resolved — the
// HTTP path uses it so decode and serve agree on one state.
func (s *Server) transformOn(ctx context.Context, h *planHandle, st *planState, tbl *dataframe.Table) (*query.FeatureMatrix, *planState, bool, error) {
	if s.draining.Load() {
		return nil, nil, false, ErrDraining
	}
	rows := int64(tbl.NumRows())
	if h.inflight.Add(rows) > int64(s.cfg.MaxInflightRows) {
		h.inflight.Add(-rows)
		h.counters.rejected.Add(1)
		return nil, nil, false, fmt.Errorf("%w: %q (max %d in-flight rows)", ErrOverloaded, h.name, s.cfg.MaxInflightRows)
	}
	defer h.inflight.Add(-rows)
	s.wg.Add(1)
	defer s.wg.Done()
	res := st.co.do(ctx, tbl)
	if res.err != nil {
		return nil, nil, false, res.err
	}
	h.counters.requests.Add(1)
	h.counters.rows.Add(rows)
	return res.m, st, res.coalesced, nil
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	h, ok := s.plans[name]
	s.mu.Unlock()
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", ErrUnknownPlan, name))
		return
	}
	if h.binding.Relevant == nil {
		writeError(w, fmt.Errorf("%w: plan %q binds multiple sources; append serves single-table plans", ErrBadRequest, name))
		return
	}
	body, err := readBody(w, r, "reading append rows")
	if err != nil {
		writeError(w, err)
		return
	}
	batch, err := decodeAppendRows(body, h.binding.Relevant)
	if err != nil {
		writeError(w, err)
		return
	}
	epoch, rows, err := s.Append(name, batch)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{
		Plan:      name,
		Appended:  batch.NumRows(),
		Epoch:     epoch,
		TableRows: rows,
	})
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := readBody(w, r, "reading plan body")
	if err != nil {
		writeError(w, err)
		return
	}
	version, err := s.Swap(name, body)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"plan": name, "version": version})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// statusOf maps serving and plan errors onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownPlan):
		return http.StatusNotFound
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, feataug.ErrPlanCorrupt),
		errors.Is(err, feataug.ErrPlanVersion),
		errors.Is(err, feataug.ErrEmptyPlan):
		return http.StatusBadRequest
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, feataug.ErrSchemaMismatch),
		errors.Is(err, feataug.ErrKeyMismatch),
		errors.Is(err, feataug.ErrMissingSource):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), map[string]string{"error": err.Error()})
}

// writeJSON encodes v in full before writing anything, so a value that
// fails to encode becomes a 500 error response, never a status followed by
// a truncated body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeError(w, fmt.Errorf("serve: encoding response: %w", err))
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody writes a complete JSON response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client went away; there is no one to tell.
	_, _ = w.Write(body)
}
