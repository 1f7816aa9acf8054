package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/feataug"
	"repro/internal/query"
	"repro/internal/serve"
)

// planName is the name every serving workload registers its plan under.
const planName = "bench"

// planSeed draws the serving workloads' plans. It is fixed rather than taken
// from the run seed: the seed varies the data and the requests, while every
// run serves queries of the same shapes, so the work per request does not
// swing with the seed.
const planSeed = 1

// buildPlan assembles a fixed FeaturePlan of nq distinct predicate-aware
// queries without any search: each query is a random point of the space of a
// random one- or two-attribute template.
func buildPlan(d *datagen.Dataset, aggAttrs []string, nq int) (*feataug.FeaturePlan, error) {
	rng := rand.New(rand.NewSource(planSeed))
	plan := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: d.Keys, Label: d.Label}
	seen := map[string]bool{}
	for tries := 0; len(plan.Queries) < nq; tries++ {
		if tries > 100*nq {
			return nil, fmt.Errorf("drew only %d distinct queries", len(plan.Queries))
		}
		perm := rng.Perm(len(d.PredAttrs))[:1+rng.Intn(2)]
		attrs := make([]string, len(perm))
		for i, j := range perm {
			attrs[i] = d.PredAttrs[j]
		}
		tpl := query.Template{Funcs: agg.Basic(), AggAttrs: aggAttrs, PredAttrs: attrs, Keys: d.Keys}
		space, err := query.BuildSpace(d.Relevant, tpl, query.SpaceOptions{})
		if err != nil {
			return nil, err
		}
		q, err := space.Decode(space.RandomVector(rng.Intn))
		if err != nil {
			return nil, err
		}
		if sql := q.SQL("R"); !seen[sql] {
			seen[sql] = true
			plan.Queries = append(plan.Queries, feataug.PlannedQuery{Feature: fmt.Sprintf("f%02d", len(plan.Queries)), Query: q})
		}
	}
	return plan, nil
}

// daemon is a serve.Server behind a loopback HTTP listener, with the
// benchmark's client pool of at most `clients` connections.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed once the listener's Serve has returned
	url    string
	client *http.Client
}

func startDaemon(planJSON []byte, relevant *dataframe.Table, clients int) (*daemon, error) {
	srv := serve.NewServer(serve.Config{})
	if err := srv.AddPlan(planName, planJSON, serve.PlanBinding{Relevant: relevant}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		done:   make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/v1/plans/" + planName,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return d, nil
}

// close shuts the listener, drains the server and waits for both to stop.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves nothing to retry: Drain follows
	d.srv.Drain()
	<-d.done
	d.client.CloseIdleConnections()
}

// post sends one JSON request to the plan's endpoint suffix and returns the
// response body of a 200 reply.
func (d *daemon) post(suffix string, body []byte) ([]byte, error) {
	return d.postInto(suffix, body, nil)
}

// postInto is post reading the reply into buf's spare capacity: it returns
// buf extended by the body, so a caller that keeps replies allocates nothing
// per reply. A nil buf reads into a fresh one.
func (d *daemon) postInto(suffix string, body, buf []byte) ([]byte, error) {
	resp, err := d.client.Post(d.url+suffix, "application/json", bytes.NewReader(body))
	if err != nil {
		return buf, err
	}
	data := buf
	for err == nil {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		var n int
		n, err = resp.Body.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
	}
	resp.Body.Close()
	if err != io.EOF {
		return buf, err
	}
	if resp.StatusCode != http.StatusOK {
		return buf, fmt.Errorf("%s: %s: %s", suffix, resp.Status, bytes.TrimSpace(data[len(buf):]))
	}
	return data, nil
}

// planStats is the single served plan's counter snapshot.
func (d *daemon) planStats() serve.PlanStats { return d.srv.Stats().Plans[0] }

// transformReply is the part of a transform response the checks read.
type transformReply struct {
	Rows []map[string]*float64 `json:"rows"`
}

// decodeRows parses a transform response and returns its rows with their
// canonical encoding (sorted keys, no per-pass fields such as "coalesced"),
// which is what outDigest hashes.
func decodeRows(body []byte) ([]map[string]*float64, []byte, error) {
	var r transformReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, nil, err
	}
	canon, err := json.Marshal(r.Rows)
	return r.Rows, canon, err
}

// keysBody encodes entities as a transform request body.
func keysBody(keyNames []string, keys []entityKey) []byte {
	rows := make([]map[string]int64, len(keys))
	for i, k := range keys {
		rows[i] = make(map[string]int64, len(keyNames))
		for j, name := range keyNames {
			rows[i][name] = k[j]
		}
	}
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		panic(err) // maps of int64 always encode
	}
	return body
}

// keysTable builds the typed request table the in-process layer calls take.
func keysTable(keyNames []string, keys []entityKey) *dataframe.Table {
	cols := make([]*dataframe.Column, len(keyNames))
	for j, name := range keyNames {
		vals := make([]int64, len(keys))
		for i, k := range keys {
			vals[i] = k[j]
		}
		cols[j] = dataframe.NewIntColumn(name, vals, nil)
	}
	return dataframe.MustNewTable(cols...)
}

// serveWorkload drives a fixed plan of predicate-aware queries over a tmall
// relevant table of about 200k rows through loopback HTTP, as a closed loop
// of `clients` connections each sending one request of `rows` entities at a
// time. The request shape is feataugd's load generator's: its default of 4
// entity rows per request, every entity a training key (see keyAt).
type serveWorkload struct {
	cfg     config
	opts    datagen.Options
	n, rows int
	clients int
	layerN  int // ops the layer phase replays
	countN  int // ops the deterministic counter pass replays

	data     *datagen.Dataset
	plan     *feataug.FeaturePlan
	planJSON []byte
	d        *daemon
	keys     [][]entityKey // op i's request entities
	bodies   [][]byte
	want     []oracle // per plan query, over the whole relevant table
	// arenas hold each client's replies, back to back, until the loop has
	// ended and they are checked.
	arenas [][]byte
}

// newServeTmall: 2 clients, the host's CPU count, which the closed loop may
// not exceed; 4 entity rows per request, the load generator's default.
func newServeTmall(cfg config) workload {
	w := &serveWorkload{cfg: cfg, opts: datagen.Options{TrainRows: 4000, LogsPerKey: 48, Seed: cfg.seed},
		rows: 4, clients: 2, countN: 64, layerN: 2000}
	w.n = opCount(cfg, 1600*time.Microsecond, 100)
	if cfg.toy {
		w.opts.TrainRows, w.opts.LogsPerKey = 200, 8
		w.n, w.countN, w.layerN = 20, 8, 20
	}
	return w
}

// keyAt is the training row whose key is row r of op i's request. It is
// feataugd's load generator's sampler, (client*7919 + seq*131 + row) mod
// rows, with op i being request i/clients of client i%clients.
func (w *serveWorkload) keyAt(i, r, trainRows int) int {
	return ((i%w.clients)*7919 + (i/w.clients)*131 + r) % trainRows
}

func (w *serveWorkload) setup() error {
	w.data = datagen.Tmall(w.opts)
	var err error
	if w.plan, err = buildPlan(w.data, []string{"price", "timestamp"}, 12); err != nil {
		return err
	}
	if w.planJSON, err = w.plan.Encode(); err != nil {
		return err
	}
	train, err := tableKeys(w.data.Train, w.data.Keys)
	if err != nil {
		return err
	}
	w.keys = make([][]entityKey, w.n)
	w.bodies = make([][]byte, w.n)
	for i := range w.keys {
		keys := make([]entityKey, w.rows)
		for r := range keys {
			keys[r] = train[w.keyAt(i, r, len(train))]
		}
		w.keys[i] = keys
		w.bodies[i] = keysBody(w.data.Keys, keys)
	}
	w.want = make([]oracle, len(w.plan.Queries))
	for j, pq := range w.plan.Queries {
		if w.want[j], err = executeOracle(pq.Query, w.data.Relevant); err != nil {
			return err
		}
	}
	// A reply cell is at most `"fNN":` and a 24-byte float; 512 bytes cover
	// the envelope (plan name, version, feature list, flags).
	replySize := w.rows*len(w.plan.Queries)*32 + 512
	w.arenas = make([][]byte, w.clients)
	for c := range w.arenas {
		w.arenas[c] = make([]byte, 0, (w.n/w.clients+1)*replySize)
	}
	w.d, err = startDaemon(w.planJSON, w.data.Relevant, w.clients)
	return err
}

func (w *serveWorkload) close() {
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
}

// closedLoop runs op(i) for every i < n on `clients` goroutines, client c
// taking ops c, c+clients, ..., each after its previous one returned.
func closedLoop(n, clients int, op func(i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				op(i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func (w *serveWorkload) run(tr *tracer, m metrics) (*phase, error) {
	if tr != nil {
		// Before any other request, so the counts start from a cold server.
		if err := w.coldCounters(m); err != nil {
			return nil, err
		}
	}
	ph := &phase{lat: make([]float64, w.n), ok: make([]bool, w.n)}
	replies := make([][]byte, w.n)
	errs := make([]error, w.n)
	statsBefore := w.d.planStats()
	before := sampleProc()
	wall := closedLoop(w.n, w.clients, func(i int) {
		c := i % w.clients
		start := len(w.arenas[c])
		id := tr.begin("serve.http", -1, i)
		t0 := time.Now()
		w.arenas[c], errs[i] = w.d.postInto("/transform", w.bodies[i], w.arenas[c])
		ph.lat[i] = ms(time.Since(t0))
		tr.end(id)
		replies[i] = w.arenas[c][start:]
	})
	ph.proc = before.to(sampleProc())
	ph.timedSec = wall.Seconds()
	statsAfter := w.d.planStats()
	// Every reply is checked once the loop has ended, so the checks take no
	// time or CPU from the timed requests.
	for i, reply := range replies {
		err := errs[i]
		if err == nil {
			var rows []map[string]*float64
			var canon []byte
			if rows, canon, err = decodeRows(reply); err == nil {
				ph.outDigest = hashBytes(ph.outDigest, canon)
				err = checkRows(w.data.Keys, w.keys[i], rows, w.plan, w.want)
			}
		}
		if err != nil {
			fmt.Printf("# op %d: %v\n", i, err)
		}
		ph.ok[i] = err == nil
	}
	if tr != nil {
		batches := statsAfter.SoloBatches + statsAfter.CoalescedBatches - statsBefore.SoloBatches - statsBefore.CoalescedBatches
		m.layer("serve.req_per_pass", float64(statsAfter.Requests-statsBefore.Requests)/float64(batches))
	}
	return ph, nil
}

// layers measures the serving stack below HTTP on the same request rows:
// Server.Transform under the same closed loop, then Transformer.Matrix alone.
func (w *serveWorkload) layers(tr *tracer, m metrics) error {
	ctx := context.Background()
	nl := min(w.n, w.layerN)
	tables := make([]*dataframe.Table, nl)
	for i := range tables {
		tables[i] = keysTable(w.data.Keys, w.keys[i])
	}
	errs := make([]error, nl)
	closedLoop(nl, w.clients, func(i int) {
		id := tr.begin("serve.transform", -1, i)
		_, _, errs[i] = w.d.srv.Transform(ctx, planName, tables[i])
		tr.end(id)
	})
	engine, err := w.plan.Transformer(w.data.Relevant)
	if err != nil {
		return err
	}
	if _, err := engine.Matrix(ctx, tables[0]); err != nil { // warm its private caches
		return err
	}
	for i, t := range tables {
		id := tr.begin("query.engine", -1, i)
		_, err := engine.Matrix(ctx, t)
		tr.end(id)
		if err == nil {
			err = errs[i]
		}
		if err != nil {
			return err
		}
	}
	transform := median(tr.durations("serve.transform"))
	eng := median(tr.durations("query.engine"))
	m.layer("serve.transform_ms", transform)
	m.layer("query.engine_ms", eng)
	m.layer("serve.codec_ms", median(tr.durations("serve.http"))-transform)
	m.layer("serve.coalesce_wait_ms", transform-eng)
	bytes, _ := w.data.Relevant.MemBytes()
	m.layer("dataframe.bytes_per_row", float64(bytes)/float64(w.data.Relevant.NumRows()))
	return nil
}

// coldCounters feeds the first countN requests one at a time to the served
// plan before the traced loop, so the engine counters it reads depend only on
// the seed, never on how a concurrent loop happened to batch.
func (w *serveWorkload) coldCounters(m metrics) error {
	nc := min(w.n, w.countN)
	before := w.d.planStats().Executor
	for i := 0; i < nc; i++ {
		if _, _, err := w.d.srv.Transform(context.Background(), planName, keysTable(w.data.Keys, w.keys[i])); err != nil {
			return err
		}
	}
	after := w.d.planStats().Executor
	passes := func(s query.ExecutorStats) int64 { return s.FusedScans + s.ScatterPasses + s.SharedScanPasses }
	per := func(a, b int64) float64 { return float64(b-a) / float64(nc) }
	m.layer("query.scan_passes", per(passes(before), passes(after)))
	m.layer("query.morsels_scanned", per(before.MorselsScanned, after.MorselsScanned))
	hits, misses := after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses
	m.layer("query.plan_hit_ratio", float64(hits)/float64(hits+misses))
	return nil
}
