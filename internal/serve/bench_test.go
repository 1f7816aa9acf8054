package serve

import (
	"context"
	"net/http/httptest"
	"testing"
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
