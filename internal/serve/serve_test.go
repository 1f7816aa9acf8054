package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/feataug"
	"repro/internal/query"
)

// testRelevant builds a relevant table: uid int keys over `entities`
// distinct entities, a float value column and a low-cardinality string
// category column for predicates.
func testRelevant(tb testing.TB, rows, entities int, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"a", "b", "c", "d"}
	uid := make([]int64, rows)
	val := make([]float64, rows)
	cat := make([]string, rows)
	for i := 0; i < rows; i++ {
		uid[i] = int64(rng.Intn(entities))
		val[i] = rng.NormFloat64() * 10
		cat[i] = cats[rng.Intn(len(cats))]
	}
	tbl, err := dataframe.NewTable(
		dataframe.NewIntColumn("uid", uid, nil),
		dataframe.NewFloatColumn("val", val, nil),
		dataframe.NewStringColumn("cat", cat, nil),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// testQueries returns `n` distinct planned queries over testRelevant's
// schema, exercising predicate-free, equality and range shapes.
func testQueries(n int) []feataug.PlannedQuery {
	all := []feataug.PlannedQuery{
		{Feature: "f0", Query: query.Query{Agg: agg.Sum, AggAttr: "val", Keys: []string{"uid"}}},
		{Feature: "f1", Query: query.Query{Agg: agg.Avg, AggAttr: "val", Keys: []string{"uid"},
			Preds: []query.Predicate{{Attr: "cat", Kind: query.PredEq, StrValue: "a"}}}},
		{Feature: "f2", Query: query.Query{Agg: agg.Count, AggAttr: "val", Keys: []string{"uid"},
			Preds: []query.Predicate{{Attr: "val", Kind: query.PredRange, HasLo: true, Lo: 0}}}},
		{Feature: "f3", Query: query.Query{Agg: agg.Max, AggAttr: "val", Keys: []string{"uid"},
			Preds: []query.Predicate{{Attr: "cat", Kind: query.PredEq, StrValue: "b"}}}},
		{Feature: "f4", Query: query.Query{Agg: agg.Std, AggAttr: "val", Keys: []string{"uid"}}},
	}
	return all[:n]
}

func testPlanJSON(tb testing.TB, n int) []byte {
	p := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(n)}
	data, err := p.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func keyTable(tb testing.TB, uids []int64) *dataframe.Table {
	tbl, err := dataframe.NewTable(dataframe.NewIntColumn("uid", uids, nil))
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// gateTransformer fronts a plan's transformer so a test can hold passes
// open: it records the rows of every pass in order, and each of the first
// hold passes signals entered, then blocks until release is closed. Requests
// arriving meanwhile queue behind them exactly as they would behind slow
// passes.
type gateTransformer struct {
	Transformer
	hold    int
	entered chan struct{} // one send per held pass
	release chan struct{}

	mu     sync.Mutex
	passes []int
}

func (g *gateTransformer) Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	g.mu.Lock()
	held := len(g.passes) < g.hold
	g.passes = append(g.passes, d.NumRows())
	g.mu.Unlock()
	if held {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Transformer.Matrix(ctx, d)
}

func (g *gateTransformer) passRows() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.passes...)
}

// gateCoalescer installs a gateTransformer holding the first hold passes in
// front of co.
func gateCoalescer(co *coalescer, hold int) *gateTransformer {
	g := &gateTransformer{Transformer: co.tr, hold: hold,
		entered: make(chan struct{}, hold), release: make(chan struct{})}
	co.tr = g
	return g
}

// gatePlan fills every pass slot of plan name's coalescer: all but one are
// occupied (occupySlots) and the last runs the first request's pass, held by
// a gateTransformer until release, so later requests queue behind it at any
// GOMAXPROCS. Call it before the plan serves any request.
func gatePlan(t *testing.T, srv *Server, name string) *gateTransformer {
	co := srv.plans[name].state.Load().co
	occupySlots(t, co, 1)
	return gateCoalescer(co, 1)
}

// occupySlots takes all but free of co's pass slots, as passes of other
// requests would, and gives them back at test cleanup through the hand-off a
// finishing pass uses. A limit below free is raised to free, so tests of
// overlapping passes run on a one-CPU host too.
func occupySlots(t *testing.T, co *coalescer, free int) {
	co.mu.Lock()
	co.limit = max(co.limit, free)
	n := co.limit - free
	co.running += n
	co.mu.Unlock()
	t.Cleanup(func() {
		for i := 0; i < n; i++ {
			co.handOff()
		}
	})
}

// waitQueued yields until n requests are queued behind plan name's running
// passes.
func waitQueued(t *testing.T, srv *Server, name string, n int) {
	t.Helper()
	co := srv.plans[name].state.Load().co
	deadline := time.Now().Add(10 * time.Second)
	for {
		co.mu.Lock()
		q := len(co.pending)
		co.mu.Unlock()
		if q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", q, n)
		}
		runtime.Gosched()
	}
}

// TestServeDifferentialCoalesced is the bit-identity contract of the
// coalescer: 16 concurrent requests — one holding a pass open, fifteen
// queued behind it and served by one fused pass — must return, over HTTP,
// exactly the floats a solo Transformer.Transform produces for the same
// rows (Go's JSON float encoding is shortest-round-trip, so parse-back is
// exact).
func TestServeDifferentialCoalesced(t *testing.T) {
	rel := testRelevant(t, 5000, 200, 1)
	planJSON := testPlanJSON(t, 5)
	srv := NewServer(Config{MaxBatchRows: 1 << 20})
	if err := srv.AddPlan("p", planJSON, PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	gate := gatePlan(t, srv, "p")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The ground truth: a fresh solo transformer over the same plan bytes.
	plan, err := feataug.DecodePlan(planJSON)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := plan.Transformer(rel)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	rng := rand.New(rand.NewSource(2))
	uidSets := make([][]int64, clients)
	for c := range uidSets {
		rows := 1 + rng.Intn(4)
		uidSets[c] = make([]int64, rows)
		for i := range uidSets[c] {
			// Entities 200-219 do not exist: exercises join-miss nulls.
			uidSets[c][i] = int64(rng.Intn(220))
		}
	}

	responses := make([]transformResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	post := func(c int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := make([]map[string]interface{}, len(uidSets[c]))
			for i, uid := range uidSets[c] {
				rows[i] = map[string]interface{}{"uid": uid}
			}
			body, _ := json.Marshal(map[string]interface{}{"rows": rows})
			resp, err := http.Post(ts.URL+"/v1/plans/p/transform", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[c] = json.NewDecoder(resp.Body).Decode(&responses[c])
		}()
	}
	// Client 0 holds the first pass open; the rest queue behind it.
	post(0)
	<-gate.entered
	for c := 1; c < clients; c++ {
		post(c)
	}
	waitQueued(t, srv, "p", clients-1)
	close(gate.release)
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	for c := range responses {
		got := responses[c]
		want, err := solo.Transform(context.Background(), keyTable(t, uidSets[c]))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(uidSets[c]) {
			t.Fatalf("client %d: %d response rows, want %d", c, len(got.Rows), len(uidSets[c]))
		}
		for _, feat := range solo.FeatureNames() {
			vals, valid := want.Column(feat).Floats()
			for i := range got.Rows {
				gv, ok := got.Rows[i][feat]
				if !ok {
					t.Fatalf("client %d row %d: feature %q missing from response", c, i, feat)
				}
				if gv == nil {
					if valid[i] {
						t.Errorf("client %d row %d %s: got null, want %v", c, i, feat, vals[i])
					}
					continue
				}
				if !valid[i] {
					t.Errorf("client %d row %d %s: got %v, want null", c, i, feat, *gv)
				} else if *gv != vals[i] {
					t.Errorf("client %d row %d %s: got %v, want %v (not bit-identical)", c, i, feat, *gv, vals[i])
				}
			}
		}
	}

	st := srv.Stats()
	if len(st.Plans) != 1 {
		t.Fatalf("stats plans = %d", len(st.Plans))
	}
	ps := st.Plans[0]
	queuedRows := 0
	for _, uids := range uidSets[1:] {
		queuedRows += len(uids)
	}
	if ps.SoloBatches != 1 || ps.CoalescedBatches != 1 || ps.CoalescedRows != int64(queuedRows) {
		t.Errorf("batches = %d solo / %d coalesced over %d rows, want 1 / 1 over %d",
			ps.SoloBatches, ps.CoalescedBatches, ps.CoalescedRows, queuedRows)
	}
	if ps.CoalescedBatches+ps.SoloBatches >= clients {
		t.Errorf("batches %d+%d not fewer than %d requests — nothing was fused",
			ps.CoalescedBatches, ps.SoloBatches, clients)
	}
	for c := range responses {
		if responses[c].Coalesced != (c > 0) {
			t.Errorf("client %d: coalesced = %v, want %v", c, responses[c].Coalesced, c > 0)
		}
	}
	if ps.Requests != clients {
		t.Errorf("requests = %d, want %d", ps.Requests, clients)
	}
}

// TestServeStatsTableBytes checks the /v1/stats residency gauge: TableBytes
// reports the bound relevant table's resident estimate — compact from bind —
// and an append that rematerialises the string column (one pushing its
// cardinality past the dictionary cap) shows up on the very next snapshot as
// a rise of over 12 B/row (a 16-byte string header per row replaces 2 bytes
// of code): the gauge reads live table state, not a cached figure from bind
// time.
func TestServeStatsTableBytes(t *testing.T) {
	rel := testRelevant(t, 2000, 50, 3)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 1), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	want, _ := rel.MemBytes()
	before := srv.Stats().Plans[0].TableBytes
	if before != want || before <= 0 || !rel.Column("cat").IsCompact() {
		t.Fatalf("TableBytes = %d, want %d (> 0) over a compact table", before, want)
	}
	n := dataframe.MaxDictCardinality
	uids, vals, cats := make([]int64, n), make([]float64, n), make([]string, n)
	for i := range cats {
		uids[i], vals[i], cats[i] = int64(i%50), float64(i), fmt.Sprintf("v%04d", i)
	}
	batch := dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", uids, nil),
		dataframe.NewFloatColumn("val", vals, nil),
		dataframe.NewStringColumn("cat", cats, nil),
	)
	if _, _, err := srv.Append("p", batch); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats().Plans[0].TableBytes
	if rel.Column("cat").IsCompact() || after < before+12*2000 {
		t.Errorf("TableBytes after a rematerialising append = %d, want >= %d", after, before+12*2000)
	}
	// The table still serves: transform a batch and confirm the
	// endpoint-side JSON carries the gauge.
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{1, 2})); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(srv.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"table_bytes":`)) {
		t.Errorf("stats JSON missing table_bytes: %s", data)
	}
}

// TestServeLoneRequestRunsAtOnce: a request arriving at a plan with a free
// pass slot starts its pass immediately on its own goroutine — there is no
// timer to wait out and nothing to queue behind. Every other slot is
// occupied, so the request takes the last one. Even a caller whose context is
// already cancelled gets its features, because the pass ran before the
// request could wait on anything.
func TestServeLoneRequestRunsAtOnce(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 3)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	co := srv.plans["p"].state.Load().co
	occupySlots(t, co, 1)
	probe := &probeTransformer{Transformer: co.tr, co: co}
	co.tr = probe

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, coalesced, err := srv.Transform(ctx, "p", keyTable(t, []int64{1, 2, 3}))
	if err != nil {
		t.Fatalf("lone request with a cancelled context: %v (its pass should run inline)", err)
	}
	if coalesced {
		t.Error("lone request reported coalesced")
	}
	if m.NumRows() != 3 || m.NumFeatures() != 2 {
		t.Errorf("matrix = %dx%d, want 3x2", m.NumRows(), m.NumFeatures())
	}
	if probe.calls != 1 || probe.sawRunning != co.limit || probe.sawQueued != 0 {
		t.Errorf("pass probe: %d calls, %d of %d slots running, %d queued; want 1 call, every slot running, 0 queued",
			probe.calls, probe.sawRunning, co.limit, probe.sawQueued)
	}
	if st := srv.Stats().Plans[0]; st.SoloBatches != 1 || st.CoalescedBatches != 0 {
		t.Errorf("batches = %d solo / %d coalesced, want 1/0", st.SoloBatches, st.CoalescedBatches)
	}
	co.mu.Lock()
	running := co.running
	co.mu.Unlock()
	if running != co.limit-1 {
		t.Errorf("coalescer still holds %d slots after its only pass returned, want the %d occupied ones", running, co.limit-1)
	}
}

// probeTransformer records, from inside each pass, what the coalescer looked
// like while the pass ran.
type probeTransformer struct {
	Transformer
	co         *coalescer
	calls      int
	sawRunning int
	sawQueued  int
}

func (p *probeTransformer) Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	p.co.mu.Lock()
	p.calls++
	p.sawRunning = p.co.running
	p.sawQueued = len(p.co.pending)
	p.co.mu.Unlock()
	return p.Transformer.Matrix(ctx, d)
}

// transformAsync starts one library transform and returns its result channel.
type asyncResult struct {
	m         *query.FeatureMatrix
	coalesced bool
	err       error
}

func transformAsync(srv *Server, tbl *dataframe.Table) <-chan asyncResult {
	ch := make(chan asyncResult, 1)
	go func() {
		m, coalesced, err := srv.Transform(context.Background(), "p", tbl)
		ch <- asyncResult{m, coalesced, err}
	}()
	return ch
}

// queueBehindGate fills every pass slot, the last with a held 1-row pass,
// then queues one request per entry of sizes in that order (each enqueued
// before the next starts), releases the gate and returns every request's
// result, the held one first.
func queueBehindGate(t *testing.T, srv *Server, sizes []int) []asyncResult {
	t.Helper()
	gate := gatePlan(t, srv, "p")
	chans := []<-chan asyncResult{transformAsync(srv, keyTable(t, []int64{0}))}
	<-gate.entered
	uid := int64(1)
	for i, n := range sizes {
		uids := make([]int64, n)
		for j := range uids {
			uids[j] = uid
			uid++
		}
		chans = append(chans, transformAsync(srv, keyTable(t, uids)))
		waitQueued(t, srv, "p", i+1)
	}
	close(gate.release)
	out := make([]asyncResult, len(chans))
	for i, ch := range chans {
		out[i] = <-ch
		if out[i].err != nil {
			t.Fatalf("request %d: %v", i, out[i].err)
		}
	}
	return out
}

// TestServeQueuedRequestsRideOnePass: requests that arrive while a pass runs
// are served together by the next pass, each getting exactly its own rows.
func TestServeQueuedRequestsRideOnePass(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 11)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 3), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 2, 3, 4, 5}
	res := queueBehindGate(t, srv, sizes)
	if res[0].coalesced {
		t.Error("the held request reported coalesced")
	}
	for i, n := range sizes {
		r := res[i+1]
		if !r.coalesced || r.m.NumRows() != n {
			t.Errorf("queued request %d: %d rows coalesced=%v, want %d rows coalesced", i, r.m.NumRows(), r.coalesced, n)
		}
	}
	st := srv.Stats().Plans[0]
	if st.SoloBatches != 1 || st.CoalescedBatches != 1 || st.CoalescedRows != 15 {
		t.Errorf("batches = %d solo / %d coalesced over %d rows, want 1 / 1 over 15",
			st.SoloBatches, st.CoalescedBatches, st.CoalescedRows)
	}
	if got := srv.plans["p"].state.Load().co.tr.(*gateTransformer).passRows(); !slices.Equal(got, []int{1, 15}) {
		t.Errorf("pass rows = %v, want [1 15]", got)
	}
}

// TestServeMaxBatchRowsSplit: the queue behind a running pass is cut into
// passes of whole requests up to MaxBatchRows rows, in arrival order; a
// request that does not fit waits for the pass after.
func TestServeMaxBatchRowsSplit(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 12)
	srv := NewServer(Config{MaxBatchRows: 4})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	queueBehindGate(t, srv, []int{3, 2, 2, 1, 5})
	// 3 alone (3+2 > 4), then 2+2, then 1 (1+5 > 4), then 5 alone (over the
	// cap, but a request always runs whole).
	if got := srv.plans["p"].state.Load().co.tr.(*gateTransformer).passRows(); !slices.Equal(got, []int{1, 3, 4, 1, 5}) {
		t.Errorf("pass rows = %v, want [1 3 4 1 5]", got)
	}
	st := srv.Stats().Plans[0]
	if st.SoloBatches != 4 || st.CoalescedBatches != 1 || st.CoalescedRows != 4 {
		t.Errorf("batches = %d solo / %d coalesced over %d rows, want 4 / 1 over 4",
			st.SoloBatches, st.CoalescedBatches, st.CoalescedRows)
	}
}

// TestServePassesOverlap: with two pass slots free, two requests on one plan
// run their passes side by side — both passes enter the transformer before
// either is let go, and each is served alone.
func TestServePassesOverlap(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 16)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	co := srv.plans["p"].state.Load().co
	occupySlots(t, co, 2)
	gate := gateCoalescer(co, 2)
	results := []<-chan asyncResult{
		transformAsync(srv, keyTable(t, []int64{1})),
		transformAsync(srv, keyTable(t, []int64{2, 3})),
	}
	for i := 0; i < 2; i++ {
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 2 passes entered while the first was held — passes did not overlap", i)
		}
	}
	close(gate.release)
	for i, ch := range results {
		res := <-ch
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.coalesced || res.m.NumRows() != i+1 {
			t.Errorf("request %d: %d rows coalesced=%v, want %d rows solo", i, res.m.NumRows(), res.coalesced, i+1)
		}
	}
	if st := srv.Stats().Plans[0]; st.SoloBatches != 2 || st.CoalescedBatches != 0 {
		t.Errorf("batches = %d solo / %d coalesced, want 2/0", st.SoloBatches, st.CoalescedBatches)
	}
}

// stepTransformer reports each pass's first uid on entered as the pass
// starts, and holds a pass whose first uid has a hold channel until that
// channel is closed — so a test can finish passes one at a time.
type stepTransformer struct {
	Transformer
	entered chan int64
	hold    map[int64]chan struct{}
}

func (s *stepTransformer) Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	uid := d.Column("uid").IntData()[0]
	s.entered <- uid
	if ch, ok := s.hold[uid]; ok {
		<-ch
	}
	return s.Transformer.Matrix(ctx, d)
}

// TestServeQueueOrder: a request arriving while requests are queued waits
// behind them even as slots turn over — a finishing pass hands its slot to
// the head of the queue, never to a later arrival. Two slots, one request per
// pass (MaxBatchRows 1): R1 and R2 hold both slots, Q1 and Q2 queue, R1's
// slot passes to Q1, then L arrives behind Q2; R2's slot must serve Q2 before
// L.
func TestServeQueueOrder(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 17)
	srv := NewServer(Config{MaxBatchRows: 1})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	co := srv.plans["p"].state.Load().co
	occupySlots(t, co, 2)
	const r1, r2, q1, q2, late = 1, 2, 10, 11, 20
	step := &stepTransformer{Transformer: co.tr, entered: make(chan int64, 5), // one per request
		hold: map[int64]chan struct{}{r1: make(chan struct{}), r2: make(chan struct{}), q1: make(chan struct{})}}
	co.tr = step
	next := func(want int64) {
		t.Helper()
		select {
		case got := <-step.entered:
			if got != want {
				t.Fatalf("pass for uid %d started, want uid %d", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no pass started, want one for uid %d", want)
		}
	}
	var results []<-chan asyncResult
	send := func(uid int64) {
		results = append(results, transformAsync(srv, keyTable(t, []int64{uid})))
	}

	send(r1)
	next(r1)
	send(r2)
	next(r2)
	send(q1)
	waitQueued(t, srv, "p", 1)
	send(q2)
	waitQueued(t, srv, "p", 2)
	close(step.hold[r1])
	next(q1)
	send(late)
	waitQueued(t, srv, "p", 2) // behind q2, not in a pass of its own
	close(step.hold[r2])
	next(q2)
	next(late)
	close(step.hold[q1])
	for i, ch := range results {
		if res := <-ch; res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
	}
}

// TestServeConcurrentDifferential: 8 clients × 50 transforms on one plan,
// over the HTTP handler with overlapping passes, each get exactly the bytes
// a solo Transformer produces for their rows (up to the coalesced flag).
func TestServeConcurrentDifferential(t *testing.T) {
	rel := testRelevant(t, 5000, 200, 18)
	planJSON := testPlanJSON(t, 5)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", planJSON, PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	co := srv.plans["p"].state.Load().co
	occupySlots(t, co, 4) // four free slots at any GOMAXPROCS
	plan, err := feataug.DecodePlan(planJSON)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := plan.Transformer(rel)
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 50
	rng := rand.New(rand.NewSource(19))
	uidSets := make([][][]int64, clients)
	for c := range uidSets {
		uidSets[c] = make([][]int64, perClient)
		for i := range uidSets[c] {
			uids := make([]int64, 1+rng.Intn(4))
			for j := range uids {
				// Entities 200-219 do not exist: exercises join-miss nulls.
				uids[j] = int64(rng.Intn(220))
			}
			uidSets[c][i] = uids
		}
	}
	bodies := make([][][]byte, clients)
	h := srv.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		bodies[c] = make([][]byte, perClient)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, uids := range uidSets[c] {
				var req strings.Builder
				req.WriteString(`{"rows":[`)
				for j, uid := range uids {
					if j > 0 {
						req.WriteByte(',')
					}
					fmt.Fprintf(&req, `{"uid":%d}`, uid)
				}
				req.WriteString(`]}`)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plans/p/transform", strings.NewReader(req.String())))
				if rec.Code != http.StatusOK {
					bodies[c][i] = []byte(fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String()))
					continue
				}
				bodies[c][i] = rec.Body.Bytes()
			}
		}(c)
	}
	wg.Wait()

	layout := srv.plans["p"].state.Load().layout
	for c := range uidSets {
		for i, uids := range uidSets[c] {
			want, err := solo.Matrix(context.Background(), keyTable(t, uids))
			if err != nil {
				t.Fatal(err)
			}
			wantSolo, err := layout.encode(want, false)
			if err != nil {
				t.Fatal(err)
			}
			wantFused, err := layout.encode(want, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := bodies[c][i]; !bytes.Equal(got, wantSolo) && !bytes.Equal(got, wantFused) {
				t.Fatalf("client %d request %d (uids %v):\n got %s\nwant %s", c, i, uids, got, wantSolo)
			}
		}
	}
	if st := srv.Stats().Plans[0]; st.Requests != clients*perClient {
		t.Errorf("requests = %d, want %d", st.Requests, clients*perClient)
	}
}

// TestCoalescerLimitFollowsGOMAXPROCS: the pass limit is GOMAXPROCS when the
// coalescer is built, so a one-CPU process keeps one pass at a time.
func TestCoalescerLimitFollowsGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := newCoalescer(nil, 1, nil).limit; got != 1 {
		t.Errorf("limit under GOMAXPROCS=1 = %d, want 1", got)
	}
	runtime.GOMAXPROCS(3)
	if got := newCoalescer(nil, 1, nil).limit; got != 3 {
		t.Errorf("limit under GOMAXPROCS=3 = %d, want 3", got)
	}
}

// TestServePassesRunInline: a served plan's executor runs each pass's plan
// groups inline, so GOMAXPROCS concurrent passes use GOMAXPROCS goroutines,
// not GOMAXPROCS worker pools.
func TestServePassesRunInline(t *testing.T) {
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: testRelevant(t, 100, 10, 22)}); err != nil {
		t.Fatal(err)
	}
	if got := srv.plans["p"].state.Load().tr.(*feataug.Transformer).Executor().Parallelism; got != 1 {
		t.Errorf("served executor Parallelism = %d, want 1", got)
	}
}

// panicTransformer panics on its first pass and serves normally after.
type panicTransformer struct {
	Transformer
	calls int
}

func (p *panicTransformer) Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	p.calls++
	if p.calls == 1 {
		panic("engine bug")
	}
	return p.Transformer.Matrix(ctx, d)
}

// TestServePanickingPass: a pass that panics fails its own request with an
// error (a 500 over HTTP) instead of leaving the plan marked busy forever;
// the next request runs a fresh pass and succeeds.
func TestServePanickingPass(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 14)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	co := srv.plans["p"].state.Load().co
	co.tr = &panicTransformer{Transformer: co.tr}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plans/p/transform",
		strings.NewReader(`{"rows":[{"uid":1}]}`)))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panicked") {
		t.Errorf("panicking pass = %d %s, want 500 naming the panic", rec.Code, rec.Body.String())
	}
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{1, 2})); err != nil {
		t.Errorf("request after a panicking pass: %v", err)
	}
}

// TestServeAdmissionControl holds one request's pass open, then checks the
// next request over the in-flight row budget is rejected with the typed
// ErrOverloaded while the held one still completes.
func TestServeAdmissionControl(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 4)
	srv := NewServer(Config{MaxInflightRows: 4})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	gate := gatePlan(t, srv, "p")
	firstDone := transformAsync(srv, keyTable(t, []int64{1, 2, 3}))
	<-gate.entered

	_, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{4, 5}))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget request error = %v, want ErrOverloaded", err)
	}
	if got := srv.Stats().Plans[0].RejectedRequests; got != 1 {
		t.Errorf("RejectedRequests = %d, want 1", got)
	}

	// Over HTTP the rejection is a 429.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/plans/p/transform", "application/json",
		strings.NewReader(`{"rows":[{"uid":7},{"uid":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}

	close(gate.release)
	if res := <-firstDone; res.err != nil {
		t.Fatalf("held request failed: %v", res.err)
	} else if res.m.NumRows() != 3 {
		t.Errorf("held request rows = %d, want 3", res.m.NumRows())
	}
}

// multiPlanJSON builds a one-source MultiFeaturePlan over rel with the given
// schema fingerprint (pass the real one for a valid plan).
func multiPlanJSON(tb testing.TB, fingerprint string, n int) []byte {
	mp := &feataug.MultiFeaturePlan{
		Version: feataug.MultiPlanVersion,
		Sources: []feataug.PlanSource{{
			Name:              "rel",
			SchemaFingerprint: fingerprint,
			Plan:              feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(n)},
		}},
	}
	for i := range mp.Sources[0].Plan.Queries {
		mp.Sources[0].Plan.Queries[i].Feature = fmt.Sprintf("rel_feataug_%d", i)
	}
	data, err := mp.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestServeHotSwap covers the swap semantics satellite: a schema-fingerprint
// mismatch must fail with ErrSchemaMismatch (409) leaving the old plan
// serving at its old version; corrupt bytes must fail with ErrPlanCorrupt
// (400); a valid swap bumps the version and serves the new feature set.
func TestServeHotSwap(t *testing.T) {
	rel := testRelevant(t, 2000, 100, 5)
	plan := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(2)}
	goodFP := plan.SchemaFingerprint(rel)
	srv := NewServer(Config{})
	if err := srv.AddPlan("m", multiPlanJSON(t, goodFP, 2), PlanBinding{Sources: map[string]*dataframe.Table{"rel": rel}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	transform := func() (int, transformResponse) {
		resp, err := http.Post(ts.URL+"/v1/plans/m/transform", "application/json",
			strings.NewReader(`{"rows":[{"uid":11}]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr transformResponse
		_ = json.NewDecoder(resp.Body).Decode(&tr)
		return resp.StatusCode, tr
	}

	if code, tr := transform(); code != http.StatusOK || tr.Version != 1 {
		t.Fatalf("initial transform = %d v%d, want 200 v1", code, tr.Version)
	}

	// Mismatched fingerprint: rejected with 409, old plan keeps serving.
	resp, err := http.Post(ts.URL+"/v1/plans/m", "application/json",
		bytes.NewReader(multiPlanJSON(t, "0123456789abcdef", 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("fingerprint-mismatch swap status = %d, want 409", resp.StatusCode)
	}
	if _, err := srv.Swap("m", multiPlanJSON(t, "0123456789abcdef", 3)); !errors.Is(err, feataug.ErrSchemaMismatch) {
		t.Errorf("fingerprint-mismatch Swap error = %v, want ErrSchemaMismatch", err)
	}
	if code, tr := transform(); code != http.StatusOK || tr.Version != 1 || len(tr.Features) != 2 {
		t.Fatalf("post-failed-swap transform = %d v%d (%d features), want 200 v1 (2)", code, tr.Version, len(tr.Features))
	}

	// Corrupt bytes: 400, still serving.
	resp, err = http.Post(ts.URL+"/v1/plans/m", "application/json", strings.NewReader("{truncated"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt swap status = %d, want 400", resp.StatusCode)
	}

	// Valid swap to a wider plan: version bumps, new features serve.
	resp, err = http.Post(ts.URL+"/v1/plans/m", "application/json", bytes.NewReader(multiPlanJSON(t, goodFP, 4)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid swap status = %d, want 200", resp.StatusCode)
	}
	code, tr := transform()
	if code != http.StatusOK || tr.Version != 2 || len(tr.Features) != 4 {
		t.Fatalf("post-swap transform = %d v%d (%d features), want 200 v2 (4)", code, tr.Version, len(tr.Features))
	}
	ps := srv.Stats().Plans[0]
	if ps.SwapCount != 1 || ps.Version != 2 {
		t.Errorf("stats swap_count=%d version=%d, want 1/2", ps.SwapCount, ps.Version)
	}
}

// TestServeSwapDuringTransforms hammers transforms concurrently with
// hot-swaps; run under -race this is the swap-safety regression test. Every
// request must succeed on whichever plan version it landed on, with the
// right feature count for that version.
func TestServeSwapDuringTransforms(t *testing.T) {
	rel := testRelevant(t, 2000, 100, 6)
	plan := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(2)}
	goodFP := plan.SchemaFingerprint(rel)
	srv := NewServer(Config{})
	if err := srv.AddPlan("m", multiPlanJSON(t, goodFP, 2), PlanBinding{Sources: map[string]*dataframe.Table{"rel": rel}}); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const perWorker = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m, _, err := srv.Transform(context.Background(), "m", keyTable(t, []int64{int64(w*perWorker + i)}))
				if err != nil {
					errCh <- fmt.Errorf("worker %d req %d: %w", w, i, err)
					return
				}
				if nf := m.NumFeatures(); nf != 2 && nf != 4 {
					errCh <- fmt.Errorf("worker %d req %d: %d features, want 2 or 4", w, i, nf)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		n := 2 + 2*(i%2) // alternate 2- and 4-feature plans
		if _, err := srv.Swap("m", multiPlanJSON(t, goodFP, n)); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := srv.Stats().Plans[0].SwapCount; got != 10 {
		t.Errorf("SwapCount = %d, want 10", got)
	}
}

// TestServeDrain holds one request's pass open with a second request queued
// behind it, drains, and checks both complete while new requests are refused
// from the moment draining starts.
func TestServeDrain(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 7)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	gate := gatePlan(t, srv, "p")
	results := []<-chan asyncResult{transformAsync(srv, keyTable(t, []int64{0}))}
	<-gate.entered
	results = append(results, transformAsync(srv, keyTable(t, []int64{1})))
	waitQueued(t, srv, "p", 1)

	done := make(chan struct{})
	go func() { srv.Drain(); close(done) }()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never started")
		}
		runtime.Gosched()
	}
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{9})); !errors.Is(err, ErrDraining) {
		t.Errorf("transform during drain error = %v, want ErrDraining", err)
	}
	select {
	case <-done:
		t.Fatal("Drain returned while requests were still in flight")
	default:
	}

	close(gate.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not finish — queued requests were not served")
	}
	for i, ch := range results {
		if res := <-ch; res.err != nil {
			t.Errorf("in-flight request %d failed across drain: %v", i, res.err)
		}
	}
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, []int64{9})); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain transform error = %v, want ErrDraining", err)
	}
}

// activeTransformer counts the passes running through it.
type activeTransformer struct {
	Transformer
	active atomic.Int64
}

func (a *activeTransformer) Matrix(ctx context.Context, d *dataframe.Table) (*query.FeatureMatrix, error) {
	a.active.Add(1)
	defer a.active.Add(-1)
	return a.Transformer.Matrix(ctx, d)
}

// TestDrainWaitsForAdmittedRequests drains a server while transform and
// append loops run against it. Drain must not return while an admitted
// request still runs: no transform pass is running and the table does not
// grow after it returns. And no request that starts after it returns may
// succeed.
func TestDrainWaitsForAdmittedRequests(t *testing.T) {
	rel := testRelevant(t, 500, 20, 21)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	co := srv.plans["p"].state.Load().co
	tr := &activeTransformer{Transformer: co.tr}
	co.tr = tr
	batch := testRelevant(t, 4, 20, 22)
	keys := keyTable(t, []int64{1, 2, 3})

	var drained atomic.Bool
	var served atomic.Int64
	loop := func(call func() error) {
		for {
			after := drained.Load()
			err := call()
			if errors.Is(err, ErrDraining) {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			if after {
				t.Error("a request that started after Drain returned succeeded")
				return
			}
			served.Add(1)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				loop(func() error { _, _, err := srv.Append("p", batch); return err })
				return
			}
			loop(func() error { _, _, err := srv.Transform(context.Background(), "p", keys); return err })
		}()
	}
	for served.Load() < 30 {
		runtime.Gosched()
	}
	srv.Drain()
	rows := rel.NumRows()
	if n := tr.active.Load(); n != 0 {
		t.Errorf("Drain returned with %d transform passes running", n)
	}
	drained.Store(true)
	wg.Wait()
	if n := rel.NumRows(); n != rows {
		t.Errorf("the table grew from %d to %d rows after Drain returned", rows, n)
	}
}

// TestServeBodyTooLarge: transform, append and swap bodies over MaxBodyBytes
// are refused with 413 (the typed ErrBodyTooLarge), and the plan keeps
// serving.
func TestServeBodyTooLarge(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 13)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	row := []byte(`{"uid":1},`)
	big := append([]byte(`{"rows":[`), bytes.Repeat(row, MaxBodyBytes/len(row)+1)...)
	big = append(big, `{"uid":1}]}`...)
	for _, path := range []string{"/v1/plans/p/transform", "/v1/plans/p/append", "/v1/plans/p"} {
		rec := post(path, big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body = %d (%s), want 413", path, len(big), rec.Code, rec.Body.String())
		}
	}
	if rec := post("/v1/plans/p/transform", []byte(`{"rows":[{"uid":1}]}`)); rec.Code != http.StatusOK {
		t.Errorf("transform after oversized bodies = %d, want 200", rec.Code)
	}
	if got := srv.Stats().Plans[0].Appends; got != 0 {
		t.Errorf("appends = %d after an oversized append, want 0", got)
	}
}

// TestServeRowCap: the transform decoder counts rows as it scans and refuses
// a body carrying more than MaxInflightRows rows with the admission 429,
// without reading past row MaxInflightRows+1 (the malformed tail below is
// never reached). A body over MaxBodyBytes is refused with 413 first, before
// any row is counted.
func TestServeRowCap(t *testing.T) {
	rel := testRelevant(t, 500, 20, 14)
	srv := NewServer(Config{MaxInflightRows: 4})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plans/p/transform", bytes.NewReader(body)))
		return rec.Code
	}
	rows := func(n int) []byte {
		return bytes.Repeat([]byte(`{"uid":1},`), n)
	}
	atCap := append(append([]byte(`{"rows":[`), rows(3)...), `{"uid":1}]}`...)
	if code := post(atCap); code != http.StatusOK {
		t.Errorf("4 rows at a cap of 4 = %d, want 200", code)
	}
	overCap := append(append([]byte(`{"rows":[`), rows(4)...), `{"uid":1}]}`...)
	if code := post(overCap); code != http.StatusTooManyRequests {
		t.Errorf("5 rows over a cap of 4 = %d, want 429", code)
	}
	truncated := append(append([]byte(`{"rows":[`), rows(4)...), `{"uid":`...)
	if code := post(truncated); code != http.StatusTooManyRequests {
		t.Errorf("4 rows then a malformed 5th = %d, want 429 (the scan stops at the cap)", code)
	}
	if got := srv.Stats().Plans[0].RejectedRequests; got != 2 {
		t.Errorf("RejectedRequests = %d, want 2", got)
	}
	huge := append(append([]byte(`{"rows":[`), rows(MaxBodyBytes/10+1)...), `{"uid":1}]}`...)
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body over the row cap = %d, want 413", len(huge), code)
	}
	if _, err := decodeRows(overCap, []keyCol{{name: "uid", kind: dataframe.KindInt}}, 4); !errors.Is(err, ErrOverloaded) {
		t.Errorf("decodeRows over the cap: err = %v, want ErrOverloaded", err)
	}
}

// TestServeNonFiniteFeature: a feature that overflows to +Inf (SUM over two
// appended 1e308 values) cannot be written as JSON. The transform must fail
// closed with a complete JSON error response and a non-200 status, not a 200
// with a truncated body.
func TestServeNonFiniteFeature(t *testing.T) {
	rel := testRelevant(t, 500, 20, 15)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	if code, _ := post("/v1/plans/p/transform", `{"rows":[{"uid":1}]}`); code != http.StatusOK {
		t.Fatalf("transform before the append = %d, want 200", code)
	}
	if code, raw := post("/v1/plans/p/append", `{"rows":[{"uid":1,"val":1e308},{"uid":1,"val":1e308}]}`); code != http.StatusOK {
		t.Fatalf("append = %d (%s)", code, raw)
	}
	code, raw := post("/v1/plans/p/transform", `{"rows":[{"uid":1}]}`)
	if code == http.StatusOK {
		t.Fatalf("transform of a +Inf feature = 200 (%q), want an error status", raw)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "+Inf") {
		t.Errorf("error body %q (%v), want a JSON error naming +Inf", raw, err)
	}
	// Entities without the overflow still serve.
	if code, _ := post("/v1/plans/p/transform", `{"rows":[{"uid":2}]}`); code != http.StatusOK {
		t.Errorf("transform of a finite entity = %d, want 200", code)
	}
}

// TestDecodeRows covers the request codec's typed failure modes.
func TestDecodeRows(t *testing.T) {
	spec := []keyCol{{name: "uid", kind: dataframe.KindInt}, {name: "tag", kind: dataframe.KindString}}
	ok := `{"rows":[{"uid":3,"tag":"x"},{"uid":-1,"tag":"y"}]}`
	tbl, err := decodeRows([]byte(ok), spec, DefaultMaxInflightRows)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 || !tbl.HasColumn("uid") || !tbl.HasColumn("tag") {
		t.Fatalf("decoded table shape wrong: %d rows", tbl.NumRows())
	}

	bad := map[string]string{
		"not json":          `{rows:`,
		"no rows":           `{"rows":[]}`,
		"missing key":       `{"rows":[{"uid":3}]}`,
		"null key":          `{"rows":[{"uid":null,"tag":"x"}]}`,
		"fractional int":    `{"rows":[{"uid":3.5,"tag":"x"}]}`,
		"string for int":    `{"rows":[{"uid":"3","tag":"x"}]}`,
		"number for string": `{"rows":[{"uid":3,"tag":7}]}`,
		// Accidents of encoding/json's decoder, rejected on purpose.
		"trailing bytes":       `{"rows":[{"uid":3,"tag":"x"}]} x`,
		"case-folded rows key": `{"Rows":[{"uid":3,"tag":"x"}]}`,
		"repeated rows":        `{"rows":[{"uid":3,"tag":"x"}],"rows":[{"uid":4,"tag":"y"}]}`,
	}
	for name, body := range bad {
		if _, err := decodeRows([]byte(body), spec, DefaultMaxInflightRows); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

// TestServeHTTPSurface covers the remaining endpoints: healthz, plan
// listing, unknown plans, and bad transform bodies.
func TestServeHTTPSurface(t *testing.T) {
	rel := testRelevant(t, 500, 20, 8)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var plans struct {
		Plans []struct {
			Plan     string   `json:"plan"`
			Version  int64    `json:"version"`
			Keys     []string `json:"keys"`
			Features []string `json:"features"`
		} `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(plans.Plans) != 1 || plans.Plans[0].Plan != "p" || len(plans.Plans[0].Features) != 2 {
		t.Errorf("plans listing = %+v", plans)
	}

	resp, err = http.Post(ts.URL+"/v1/plans/nope/transform", "application/json",
		strings.NewReader(`{"rows":[{"uid":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown plan = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/plans/p/transform", "application/json", strings.NewReader(`{"rows":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty rows = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Plans) != 1 || st.Plans[0].Plan != "p" {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeAppend covers the PR 9 streaming-ingest endpoint: appended rows
// are absorbed into the bound relevant table without rebinding, the next
// transform reflects them bit-identically to a from-scratch transformer over
// the grown data, and the stats surface reports the append counters and table
// epoch. Error shape: multi-source plans and malformed rows are 400s, unknown
// plans 404s.
func TestServeAppend(t *testing.T) {
	rel := testRelevant(t, 2000, 100, 10)
	planJSON := testPlanJSON(t, 4)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", planJSON, PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the plan's caches so the append exercises the delta path.
	uids := []int64{1, 2, 3, 97, 99}
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids)); err != nil {
		t.Fatal(err)
	}

	// Rows target entities 1 and 99; one row carries a NULL val and a missing
	// cat (both NULLs on the table).
	appendBody := `{"rows":[
		{"uid":1,"val":123.5,"cat":"a"},
		{"uid":99,"val":null},
		{"uid":1,"val":-7.25,"cat":"d"}
	]}`
	resp, err := http.Post(ts.URL+"/v1/plans/p/append", "application/json", strings.NewReader(appendBody))
	if err != nil {
		t.Fatal(err)
	}
	var ar appendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d", resp.StatusCode)
	}
	if ar.Appended != 3 || ar.Epoch != 1 || ar.TableRows != 2003 {
		t.Fatalf("append response = %+v, want 3 rows at epoch 1, 2003 total", ar)
	}

	// The served features must now match a from-scratch transformer over the
	// grown table, bit for bit.
	got, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := dataframe.Concat(testRelevant(t, 2000, 100, 10), dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", []int64{1, 99, 1}, nil),
		dataframe.NewFloatColumn("val", []float64{123.5, 0, -7.25}, []bool{true, false, true}),
		dataframe.NewStringColumn("cat", []string{"a", "", "d"}, []bool{true, false, true}),
	))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := feataug.DecodePlan(planJSON)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := plan.Transformer(grown)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Transform(context.Background(), keyTable(t, uids))
	if err != nil {
		t.Fatal(err)
	}
	for j, feat := range solo.FeatureNames() {
		wvals, wvalid := want.Column(feat).Floats()
		gvals, gvalid := got.Col(j)
		for i := range uids {
			if gvalid[i] != wvalid[i] || (wvalid[i] && gvals[i] != wvals[i]) {
				t.Errorf("uid %d %s: got (%v,%v), from scratch (%v,%v)",
					uids[i], feat, gvals[i], gvalid[i], wvals[i], wvalid[i])
			}
		}
	}

	ps := srv.Stats().Plans[0]
	if ps.Appends != 1 || ps.AppendedRows != 3 || ps.TableEpoch != 1 {
		t.Errorf("stats appends/rows/epoch = %d/%d/%d, want 1/3/1", ps.Appends, ps.AppendedRows, ps.TableEpoch)
	}

	// Error surface.
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/plans/nope/append", appendBody); code != http.StatusNotFound {
		t.Errorf("unknown plan append = %d, want 404", code)
	}
	if code := post("/v1/plans/p/append", `{"rows":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty append = %d, want 400", code)
	}
	if code := post("/v1/plans/p/append", `{"rows":[{"uid":"one"}]}`); code != http.StatusBadRequest {
		t.Errorf("mistyped append = %d, want 400", code)
	}
	fp := (&feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: testQueries(2)}).SchemaFingerprint(rel)
	if err := srv.AddPlan("m", multiPlanJSON(t, fp, 2), PlanBinding{Sources: map[string]*dataframe.Table{"rel": rel}}); err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/plans/m/append", appendBody); code != http.StatusBadRequest {
		t.Errorf("multi-source append = %d, want 400", code)
	}
}

// TestServeBindCompactsTable: binding a plan compacts the relevant table's
// string column, and an append carrying a mid-domain value extends its codes
// in place, so the column stays compact and the served features equal
// Query.Execute of each planned query over a raw copy of the grown rows, bit
// for bit, with unseen entities NULL.
func TestServeBindCompactsTable(t *testing.T) {
	rel := testRelevant(t, 1500, 60, 12)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 5), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	if !rel.Column("cat").IsCompact() {
		t.Fatal("bound table's string column is not compact")
	}
	uids := []int64{0, 3, 7, 59, 61}
	// Warm the caches so the append runs the delta path, not a cold build.
	if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids)); err != nil {
		t.Fatal(err)
	}
	batch := dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", []int64{3, 7, 61}, nil),
		dataframe.NewFloatColumn("val", []float64{4.5, -1, 9}, nil),
		dataframe.NewStringColumn("cat", []string{"bb", "a", "bb"}, nil),
	)
	if _, _, err := srv.Append("p", batch); err != nil {
		t.Fatal(err)
	}
	if !rel.Column("cat").IsCompact() {
		t.Fatal("mid-domain append rematerialised the column")
	}
	got, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := dataframe.Concat(testRelevant(t, 1500, 60, 12), batch)
	if err != nil {
		t.Fatal(err)
	}
	for j, pq := range testQueries(5) {
		res, err := pq.Query.Execute(grown, pq.Feature)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64]float64{}
		keys := res.Column("uid")
		for r := 0; r < res.NumRows(); r++ {
			if v, ok := res.Column(pq.Feature).AsFloat(r); ok {
				want[keys.Int(r)] = v
			}
		}
		gvals, gvalid := got.Col(j)
		for i, uid := range uids {
			w, ok := want[uid]
			if gvalid[i] != ok || (ok && gvals[i] != w) {
				t.Errorf("uid %d %s: got (%v,%v), Query.Execute (%v,%v)", uid, pq.Feature, gvals[i], gvalid[i], w, ok)
			}
		}
	}
}

// TestServeRebindCompactsDuringTransforms: two plans serve one table; while
// plan b's transforms run — scanning the string column as an aggregation
// attribute on every pass — plan a takes mid-domain appends (each
// rematerialises the column) and swaps (each rebind compacts it again). Run
// under -race, this checks the rebind compacts under the table's epoch fence
// rather than racing b's passes.
func TestServeRebindCompactsDuringTransforms(t *testing.T) {
	rel := testRelevant(t, 2000, 100, 13)
	planJSON := testPlanJSON(t, 4)
	planB := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: []string{"uid"}, Queries: append(testQueries(1),
		feataug.PlannedQuery{Feature: "nd", Query: query.Query{Agg: agg.CountDistinct, AggAttr: "cat", Keys: []string{"uid"}}})}
	planBJSON, err := planB.Encode()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{})
	if err := srv.AddPlan("a", planJSON, PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddPlan("b", planBJSON, PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 2, 60
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := srv.Transform(context.Background(), "b", keyTable(t, []int64{int64(i), int64(w)})); err != nil {
					errCh <- fmt.Errorf("worker %d req %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		batch := dataframe.MustNewTable(
			dataframe.NewIntColumn("uid", []int64{int64(i)}, nil),
			dataframe.NewFloatColumn("val", []float64{float64(i)}, nil),
			dataframe.NewStringColumn("cat", []string{fmt.Sprintf("b%d", i)}, nil), // sorts between "b" and "c"
		)
		if _, _, err := srv.Append("a", batch); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if _, err := srv.Swap("a", planJSON); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if !rel.Column("cat").IsCompact() {
		t.Error("column not compact after the last rebind")
	}
}

// TestServeStatsDuringAppends: /v1/stats snapshots taken while appends land
// read the table under its epoch fence (run under -race, this is the
// regression test), and the settled TableBytes matches the table's own
// estimate over every appended row.
func TestServeStatsDuringAppends(t *testing.T) {
	rel := testRelevant(t, 1000, 50, 20)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 2), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	batches := make([]*dataframe.Table, 20)
	for i := range batches {
		batches[i] = testRelevant(t, 8, 60, int64(100+i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range batches {
			if _, _, err := srv.Append("p", b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		if srv.Stats().Plans[0].TableBytes <= 0 {
			t.Fatal("TableBytes not positive")
		}
	}
	want, _ := rel.MemBytes()
	if got := srv.Stats().Plans[0].TableBytes; got != want || rel.NumRows() != 1160 {
		t.Errorf("settled TableBytes = %d over %d rows, want %d over 1160", got, rel.NumRows(), want)
	}
}

// TestServeStatsDictCounters pins the dictionary counters on the stats
// surface: the /v1/stats JSON must carry the executor fields, binding a plan
// must compact the relevant table's string columns, and serving a plan with
// string-equality predicates must route them through the dictionary-code
// kernels.
func TestServeStatsDictCounters(t *testing.T) {
	rel := testRelevant(t, 500, 20, 9)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 4), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	// AddPlan compacts at bind; the table's one string column is encodable.
	if !rel.Column("cat").IsCompact() {
		t.Error("bound table's string column is not compact")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/plans/p/transform", "application/json",
		strings.NewReader(`{"rows":[{"uid":1},{"uid":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transform = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("CodePredScans")) {
		t.Error("/v1/stats JSON missing executor field CodePredScans")
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Plans) != 1 {
		t.Fatalf("stats plans = %d", len(st.Plans))
	}
	ex := st.Plans[0].Executor
	if ex.CodePredScans == 0 {
		t.Errorf("string-equality predicates did not use the code kernels: %+v", ex)
	}
}

// TestServePreparedConcurrentAppends: clients transform through one plan —
// each pass reusing the transformer's prepared plan groups — while appends
// land, among them two mid-domain values that extend the category
// dictionary under the held snapshot. Every response
// must equal Query.Execute of each planned query over the table as some
// append left it, and each client's responses must never step back to an
// earlier table. Run under -race, it also checks the snapshot swap against the
// passes reading it.
func TestServePreparedConcurrentAppends(t *testing.T) {
	const seed = 27
	rel := testRelevant(t, 2000, 100, seed)
	srv := NewServer(Config{})
	if err := srv.AddPlan("p", testPlanJSON(t, 5), PlanBinding{Relevant: rel}); err != nil {
		t.Fatal(err)
	}
	enc := rel.Column("cat").Dict()
	batches := make([]*dataframe.Table, 0, 5)
	for i, cat := range []string{"a", "bb", "d", "ab", "c"} { // "bb" and "ab" sort mid-domain
		uid := []int64{int64(3 * i), 100 + int64(i), int64(3*i + 1)} // 100+ are new entities
		batches = append(batches, dataframe.MustNewTable(
			dataframe.NewIntColumn("uid", uid, nil),
			dataframe.NewFloatColumn("val", []float64{float64(50 + i), -float64(i), 0.5}, nil),
			dataframe.NewStringColumn("cat", []string{cat, cat, "b"}, nil),
		))
	}

	// want[k][j] maps uid -> feature j over the table after k appends.
	queries := testQueries(5)
	want := make([][]map[int64]float64, len(batches)+1)
	parts := []*dataframe.Table{testRelevant(t, 2000, 100, seed)}
	for k := range want {
		if k > 0 {
			parts = append(parts, batches[k-1])
		}
		grown, err := dataframe.Concat(parts...)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = make([]map[int64]float64, len(queries))
		for j, pq := range queries {
			res, err := pq.Query.Execute(grown, pq.Feature)
			if err != nil {
				t.Fatal(err)
			}
			m := map[int64]float64{}
			for r := 0; r < res.NumRows(); r++ {
				if v, ok := res.Column(pq.Feature).AsFloat(r); ok {
					m[res.Column("uid").Int(r)] = v
				}
			}
			want[k][j] = m
		}
	}
	matches := func(k int, uids []int64, got *query.FeatureMatrix) bool {
		for j := range queries {
			vals, valid := got.Col(j)
			for i, uid := range uids {
				w, ok := want[k][j][uid]
				if valid[i] != ok || (ok && vals[i] != w) {
					return false
				}
			}
		}
		return true
	}

	const clients, perClient = 3, 40
	var wg sync.WaitGroup
	var done atomic.Int64 // requests answered so far, failed ones included
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seen := 0 // earliest table this client may still observe
			for i := 0; i < perClient; i++ {
				uids := []int64{int64((c*7 + i) % 20), 100 + int64(i%6), int64(i % 3)}
				got, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids))
				k := seen
				for err == nil && k < len(want) && !matches(k, uids, got) {
					k++
				}
				switch {
				case err != nil:
					errCh <- fmt.Errorf("client %d request %d: %w", c, i, err)
				case k == len(want):
					errCh <- fmt.Errorf("client %d request %d (uids %v): matches no table from append %d on", c, i, uids, seen)
				default:
					seen = k
				}
				done.Add(1)
			}
		}(c)
	}
	// Spread the appends over the clients' requests, so passes run before,
	// between and after them.
	for i, b := range batches {
		for done.Load() < int64((i+1)*clients*perClient/(len(batches)+1)) {
			runtime.Gosched()
		}
		if _, _, err := srv.Append("p", b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Settled: the table after every append.
	uids := []int64{0, 3, 100, 101, 104, 13}
	got, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids))
	if err != nil {
		t.Fatal(err)
	}
	if !matches(len(batches), uids, got) {
		t.Error("settled response does not match the fully grown table")
	}
	if rel.Column("cat").Dict() != enc || !rel.Column("cat").IsCompact() {
		t.Error("the appends replaced the dictionary or rematerialised the column; they must extend it in place")
	}
	for _, v := range []string{"bb", "ab"} {
		if _, ok := enc.CodeOf(v); !ok {
			t.Errorf("mid-domain value %q missing from the extended dictionary", v)
		}
	}
}

// TestServeAppendFenceManyTables binds a plan, then 64 more plans over tables
// of their own, and races appends to the first plan's table against its
// transforms. Every bound table must keep one epoch fence however many other
// tables the process has bound since, so under -race an append never
// overlaps a pass over the rows it grows, and the settled answer matches the
// oracle over the grown table. Three rounds, each on a fresh server, keep the
// race detector's odds of seeing an unfenced append high.
func TestServeAppendFenceManyTables(t *testing.T) {
	const rounds, extra, appends, transforms = 3, 64, 20, 40
	q := testQueries(1)[0]
	for round := 0; round < rounds; round++ {
		seed := int64(100 + round)
		rel := testRelevant(t, 1000, 50, seed)
		srv := NewServer(Config{})
		if err := srv.AddPlan("p", testPlanJSON(t, 1), PlanBinding{Relevant: rel}); err != nil {
			t.Fatal(err)
		}
		uids := []int64{0, 7, 49, 50, 51}
		if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extra; i++ {
			other := testRelevant(t, 20, 5, seed*1000+int64(i))
			if err := srv.AddPlan(fmt.Sprintf("x%d", i), testPlanJSON(t, 1), PlanBinding{Relevant: other}); err != nil {
				t.Fatal(err)
			}
		}
		parts := []*dataframe.Table{testRelevant(t, 1000, 50, seed)}
		for i := 0; i < appends; i++ {
			parts = append(parts, dataframe.MustNewTable(
				dataframe.NewIntColumn("uid", []int64{int64(i % 50), 50 + int64(i%2)}, nil),
				dataframe.NewFloatColumn("val", []float64{float64(i), -float64(i)}, nil),
				dataframe.NewStringColumn("cat", []string{"a", "c"}, nil),
			))
		}
		errCh := make(chan error, 1)
		go func() {
			for _, b := range parts[1:] {
				if _, _, err := srv.Append("p", b); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
		for i := 0; i < transforms; i++ {
			if _, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids)); err != nil {
				t.Fatalf("round %d transform %d: %v", round, i, err)
			}
		}
		if err := <-errCh; err != nil {
			t.Fatalf("round %d append: %v", round, err)
		}
		grown, err := dataframe.Concat(parts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Query.Execute(grown, q.Feature)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64]float64{}
		for r := 0; r < res.NumRows(); r++ {
			if v, ok := res.Column(q.Feature).AsFloat(r); ok {
				want[res.Column("uid").Int(r)] = v
			}
		}
		got, _, err := srv.Transform(context.Background(), "p", keyTable(t, uids))
		if err != nil {
			t.Fatal(err)
		}
		vals, valid := got.Col(0)
		for i, uid := range uids {
			if w, ok := want[uid]; valid[i] != ok || (ok && vals[i] != w) {
				t.Errorf("round %d uid %d: got %v (valid %v), want %v (valid %v)", round, uid, vals[i], valid[i], w, ok)
			}
		}
	}
}
