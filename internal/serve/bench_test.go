package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/query"
)

// benchServer stands up an HTTP server over a 200k-row relevant table with a
// 5-query plan, capping each coalesced pass at maxBatchRows rows.
func benchServer(b *testing.B, maxBatchRows int) (*Server, *httptest.Server) {
	rel := testRelevant(b, 200_000, 5_000, 42)
	srv := NewServer(Config{
		MaxBatchRows:    maxBatchRows,
		MaxInflightRows: 1 << 20,
	})
	if err := srv.AddPlan("bench", testPlanJSON(b, 5), PlanBinding{Relevant: rel}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	// One warm-up request builds the executor's group indexes and predicate
	// bitmaps, so the benchmark measures the steady serving state.
	if _, _, err := srv.Transform(context.Background(), "bench", keyTable(b, []int64{1})); err != nil {
		b.Fatal(err)
	}
	return srv, ts
}

// benchLoad drives 16 closed-loop HTTP clients issuing 4-row requests until
// b.N requests have been served, reporting throughput and latency
// percentiles. The coalesced and solo variants differ only in MaxBatchRows,
// so the req/s ratio between them is the coalescing speedup at 16 clients.
func benchLoad(b *testing.B, srv *Server, ts *httptest.Server) {
	const clients = 16
	reqs := b.N/clients + 1
	b.ResetTimer()
	res, err := RunLoadgen(context.Background(), LoadgenConfig{
		URL:            ts.URL,
		Plan:           "bench",
		Clients:        clients,
		Requests:       reqs,
		RowsPerRequest: 4,
		NewRow: func(client, seq, row int) map[string]interface{} {
			return map[string]interface{}{"uid": (client*31 + seq*7 + row) % 5_000}
		},
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Failed > 0 || res.Rejected > 0 {
		b.Fatalf("loadgen: %d failed, %d rejected", res.Failed, res.Rejected)
	}
	b.ReportMetric(res.ThroughputRPS, "req/s")
	b.ReportMetric(res.P50MS, "p50_ms")
	b.ReportMetric(res.P99MS, "p99_ms")
	st := srv.Stats().Plans[0]
	if total := st.SoloBatches + st.CoalescedBatches; total > 0 {
		b.ReportMetric(float64(st.Requests)/float64(total), "req/pass")
	}
}

// BenchmarkServeCoalesced16 is the serving configuration: 16 concurrent
// clients, every request queued behind a running pass riding the next one.
func BenchmarkServeCoalesced16(b *testing.B) {
	srv, ts := benchServer(b, 4096)
	benchLoad(b, srv, ts)
}

// BenchmarkServeSolo16 is the one-request-per-pass baseline: same 16
// clients, MaxBatchRows 1, so every 4-row request pays its own fused pass.
func BenchmarkServeSolo16(b *testing.B) {
	srv, ts := benchServer(b, 1)
	benchLoad(b, srv, ts)
}

// codecBenchBodies builds the ingest-clickstream workload's request shapes:
// a 512-row clickstream append batch with every column by name (NULL cells as
// JSON null), the transform keys of the users it touched, and a response
// matrix of 12 features over those users with a tenth of the cells NULL.
func codecBenchBodies(b *testing.B) (appendBody, keysBody []byte, keys []keyCol, rel *dataframe.Table, m *query.FeatureMatrix, features []string) {
	cs := datagen.NewClickstream(datagen.Options{TrainRows: 2000, LogsPerKey: 8, Seed: 1})
	batch := cs.Batch(0, 512)
	rows := make([]map[string]any, batch.NumRows())
	users := map[int64]bool{}
	for i := range rows {
		row := make(map[string]any, batch.NumCols())
		for _, c := range batch.Columns() {
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
	var err error
	if appendBody, err = json.Marshal(map[string]any{"rows": rows}); err != nil {
		b.Fatal(err)
	}
	keyName := cs.Keys[0]
	uids := batch.Column(keyName).IntData()
	keyRows := []map[string]int64{}
	for _, u := range uids {
		if !users[u] {
			users[u] = true
			keyRows = append(keyRows, map[string]int64{keyName: u})
		}
	}
	if keysBody, err = json.Marshal(map[string]any{"rows": keyRows}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m = query.NewFeatureMatrix(len(keyRows), 12)
	for j := 0; j < 12; j++ {
		features = append(features, fmt.Sprintf("feature_%02d_sum_dwell", j))
		vals, valid := m.Col(j)
		for i := range vals {
			vals[i], valid[i] = rng.NormFloat64()*100, rng.Intn(10) != 0
		}
	}
	return appendBody, keysBody, []keyCol{{name: keyName, kind: dataframe.KindInt}}, cs.Relevant, m, features
}

// BenchmarkCodec times the request decoders and the response encoder on the
// ingest-clickstream shapes, each against the test-local reflection codec
// (the -ref variants) it replaced.
func BenchmarkCodec(b *testing.B) {
	appendBody, keysBody, keys, rel, m, features := codecBenchBodies(b)
	layout := newResponseLayout("bench", 1, features)
	b.Run("decode-append", func(b *testing.B) {
		b.SetBytes(int64(len(appendBody)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeAppendRows(appendBody, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-append-ref", func(b *testing.B) {
		b.SetBytes(int64(len(appendBody)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := refDecodeAppendRows(bytes.NewReader(appendBody), rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-transform", func(b *testing.B) {
		b.SetBytes(int64(len(keysBody)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeRows(keysBody, keys, DefaultMaxInflightRows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-transform-ref", func(b *testing.B) {
		b.SetBytes(int64(len(keysBody)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := refDecodeRows(bytes.NewReader(keysBody), keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := layout.encode(m, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-ref", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(transformResponse{
				Plan: "bench", Version: 1, Features: features, Rows: refEncodeMatrix(m, features),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// An ingest response's values are mostly integral (COUNT, and MIN, MAX
	// and SUM of a timestamp); this matrix holds ~73% of them, which
	// appendFloat writes with strconv.AppendInt instead of shortest-digit
	// float formatting.
	integral := query.NewFeatureMatrix(m.NumRows(), len(features))
	rng := rand.New(rand.NewSource(2))
	for j := range features {
		vals, valid := integral.Col(j)
		for i := range vals {
			switch r := rng.Float64(); {
			case r < 0.25:
				vals[i] = float64(rng.Intn(200))
			case r < 0.50:
				vals[i] = float64(1_700_000_000 + rng.Intn(10_000_000))
			case r < 0.73:
				vals[i] = float64(rng.Intn(200)) * 1_700_000_000
			default:
				vals[i] = rng.NormFloat64() * 100
			}
			valid[i] = rng.Intn(10) != 0
		}
	}
	b.Run("encode-integral", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := layout.encode(integral, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
