package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/feataug"
)

// ingestWorkload is append-to-fresh-answer latency: one client POSTs
// Clickstream.Batch(i, B) to a served plan's append endpoint, then asks for
// the features of every user that batch touched. The relevant table starts
// as a clickstream snapshot of about 210k rows and grows by B rows per op.
// B is 512, the append size of the repository's delta-maintenance benchmark
// (internal/query/delta_bench_test.go), over a snapshot of the same size.
type ingestWorkload struct {
	cfg        config
	opts       datagen.Options
	n, batch   int
	checkEvery int // ops between oracle checks; the last op is always checked

	cs       *datagen.Clickstream
	plan     *feataug.FeaturePlan
	planJSON []byte
	d        *daemon
}

func newIngest(cfg config) workload {
	w := &ingestWorkload{cfg: cfg, opts: datagen.Options{TrainRows: 10000, LogsPerKey: 20, Seed: cfg.seed}, batch: 512}
	w.n = opCount(cfg, 12*time.Millisecond, 100)
	w.checkEvery = max(w.n/4, 1)
	if cfg.toy {
		w.opts.TrainRows, w.opts.LogsPerKey = 200, 8
		w.n, w.checkEvery, w.batch = 12, 4, 32
	}
	return w
}

// setup generates the clickstream snapshot and serves the fixed plan over it.
// Each op's batch is generated just before the op, outside its timing, so the
// run holds no more than one batch at a time.
func (w *ingestWorkload) setup() error {
	w.cs = datagen.NewClickstream(w.opts)
	var err error
	if w.plan, err = buildPlan(w.cs.Dataset, []string{"dwell", "ts"}, 12); err != nil {
		return err
	}
	if w.planJSON, err = w.plan.Encode(); err != nil {
		return err
	}
	w.d, err = startDaemon(w.planJSON, w.cs.Relevant, 1)
	return err
}

// appendBody encodes a relevant-table batch as an append request: every
// column by name, NULL cells as JSON null.
func appendBody(b *dataframe.Table) ([]byte, error) {
	rows := make([]map[string]any, b.NumRows())
	for i := range rows {
		row := make(map[string]any, b.NumCols())
		for _, c := range b.Columns() {
			switch {
			case c.IsNull(i):
				row[c.Name()] = nil
			case c.Kind() == dataframe.KindString:
				row[c.Name()] = c.Str(i)
			case c.Kind() == dataframe.KindFloat:
				v, _ := c.AsFloat(i)
				row[c.Name()] = v
			default:
				row[c.Name()] = c.Int(i)
			}
		}
		rows[i] = row
	}
	return json.Marshal(map[string]any{"rows": rows})
}

// touchedKeys returns the distinct entities of a batch in ascending order.
func touchedKeys(b *dataframe.Table, keys []string) ([]entityKey, error) {
	all, err := tableKeys(b, keys)
	if err != nil {
		return nil, err
	}
	seen := map[entityKey]bool{}
	var out []entityKey
	for _, k := range all {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out, nil
}

func (w *ingestWorkload) close() {
	if w.d != nil {
		w.d.close()
		w.d = nil
	}
}

func (w *ingestWorkload) run(tr *tracer, m metrics) (*phase, error) {
	ph := &phase{}
	var deltaRows, resorts, rebuilds int64
	for i := 0; i < w.n; i++ {
		b := w.cs.Batch(i, w.batch)
		appendReq, err := appendBody(b)
		if err != nil {
			return nil, err
		}
		keys, err := touchedKeys(b, w.cs.Keys)
		if err != nil {
			return nil, err
		}
		body := keysBody(w.cs.Keys, keys)

		st0 := w.d.planStats().Executor
		before := sampleProc()
		t0 := time.Now()
		id := tr.begin("serve.append", -1, i)
		ack, err := w.d.post("/append", appendReq)
		tr.end(id)
		var reply []byte
		if err == nil {
			id = tr.begin("serve.fresh_transform", -1, i)
			reply, err = w.d.post("/transform", body)
			tr.end(id)
		}
		elapsed := time.Since(t0)
		ph.proc.add(before.to(sampleProc()))
		ph.lat = append(ph.lat, ms(elapsed))
		ph.timedSec += elapsed.Seconds()
		if err == nil {
			err = w.check(i, keys, ack, reply, ph)
		}
		if err != nil {
			fmt.Printf("# op %d: %v\n", i, err)
		}
		ph.ok = append(ph.ok, err == nil)
		if tr != nil {
			st1 := w.d.planStats().Executor
			deltaRows += st1.DeltaRowsScanned - st0.DeltaRowsScanned
			resorts += st1.DirtyGroupResorts - st0.DirtyGroupResorts
			rebuilds += st1.FullRebuilds - st0.FullRebuilds
		}
	}
	if tr != nil {
		n := float64(w.n)
		m.layer("query.delta_rows_scanned", float64(deltaRows)/n)
		m.layer("query.dirty_group_resorts", float64(resorts)/n)
		m.layer("query.full_rebuilds", float64(rebuilds)/n)
		m.layer("serve.append_ms", median(tr.durations("serve.append")))
		m.layer("serve.fresh_transform_ms", median(tr.durations("serve.fresh_transform")))
		bytes, _ := w.cs.Relevant.MemBytes()
		m.layer("dataframe.bytes_per_row", float64(bytes)/float64(w.cs.Relevant.NumRows()))
	}
	return ph, nil
}

// check verifies op i: the append landed as epoch i+1, the transform answered
// every touched entity, and on every checkEvery-th op and the last one the
// answers equal the oracle over the grown table. The oracle runs
// Query.Execute over the relevant rows of the touched entities, which is
// where each of their groups' rows live.
func (w *ingestWorkload) check(i int, keys []entityKey, ack, reply []byte, ph *phase) error {
	var a struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(ack, &a); err != nil {
		return err
	}
	if a.Epoch != uint64(i+1) {
		return fmt.Errorf("append landed at epoch %d, want %d", a.Epoch, i+1)
	}
	rows, canon, err := decodeRows(reply)
	if err != nil {
		return err
	}
	ph.outDigest = hashBytes(ph.outDigest, canon)
	if len(rows) != len(keys) {
		return fmt.Errorf("got %d rows for %d entities", len(rows), len(keys))
	}
	if i%w.checkEvery != 0 && i != w.n-1 {
		return nil
	}
	touched := make(map[entityKey]bool, len(keys))
	for _, k := range keys {
		touched[k] = true
	}
	relKeys, err := tableKeys(w.cs.Relevant, w.cs.Keys)
	if err != nil {
		return err
	}
	sub := w.cs.Relevant.Filter(func(row int) bool { return touched[relKeys[row]] })
	want := make([]oracle, len(w.plan.Queries))
	for j, pq := range w.plan.Queries {
		if want[j], err = executeOracle(pq.Query, sub); err != nil {
			return err
		}
	}
	return checkRows(w.cs.Keys, keys, rows, w.plan, want)
}

// layers has nothing to add: an ingest op's two halves and its delta
// counters are read in the traced pass itself.
func (w *ingestWorkload) layers(*tracer, metrics) error { return nil }
