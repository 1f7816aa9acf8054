// Serving walks the online half of the FeatAug lifecycle end to end: a
// FeaturePlan is fitted offline (the expensive search runs once), the plan
// JSON is handed to the feature-serving daemon machinery (internal/serve),
// and clients look up entity features over HTTP. The server runs concurrent
// requests in parallel fused AugmentMatrix passes, up to one per CPU, and
// micro-batches the requests that arrive while every pass slot is busy into
// the next pass (request coalescing); it rejects load beyond its in-flight
// budget, and hot-swaps to a new plan version without dropping in-flight
// traffic.
//
// The same server is what `cmd/feataugd` wraps behind flags; this example
// drives it in-process so every moving part is visible:
//
//	fit offline -> plan.json -> AddPlan -> POST /v1/plans/{name}/transform
//	                                    -> POST /v1/plans/{name}   (hot swap)
//	                                    -> GET  /v1/stats
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"

	repro "repro"
	"repro/internal/dataframe"
	"repro/internal/serve"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))

	// ---- Offline: build the training problem and fit a plan once. ----
	// One row per user; several purchase-log rows per user. Users with
	// recent electronics purchases carry the label signal.
	const nUsers = 300
	var uid, label []int64
	var luid []int64
	var price []float64
	var dept []string
	depts := []string{"Electronics", "Food", "Clothing", "Books"}
	for i := 0; i < nUsers; i++ {
		uid = append(uid, int64(i))
		affinity := rng.NormFloat64()
		for j := 0; j < 3+rng.Intn(4); j++ {
			luid = append(luid, int64(i))
			price = append(price, 5+rng.Float64()*100)
			dept = append(dept, depts[rng.Intn(len(depts))])
		}
		if affinity > 0 {
			for j := 0; j < 1+rng.Intn(2); j++ {
				luid = append(luid, int64(i))
				price = append(price, 100+rng.Float64()*300)
				dept = append(dept, "Electronics")
			}
		}
		if affinity+0.3*rng.NormFloat64() > 0.2 {
			label = append(label, 1)
		} else {
			label = append(label, 0)
		}
	}
	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", uid, nil),
		dataframe.NewIntColumn("label", label, nil),
	)
	logs := dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", luid, nil),
		dataframe.NewFloatColumn("price", price, nil),
		dataframe.NewStringColumn("department", dept, nil),
	)

	plan, err := repro.Fit(ctx, repro.Problem{
		Train: train, Relevant: logs, Label: "label", Task: repro.TaskBinary,
		Keys: []string{"uid"}, AggAttrs: []string{"price"}, PredAttrs: []string{"department"},
	},
		repro.WithConfig(repro.Config{
			WarmupIters: 30, WarmupTopK: 6, GenIters: 8,
			NumTemplates: 1, QueriesPerTemplate: 2,
		}),
		repro.WithModel(repro.ModelLR),
		repro.WithAggFuncs(repro.BasicAggFuncs()...),
		repro.WithSeed(11),
	)
	if err != nil {
		log.Fatal(err)
	}
	planJSON, err := plan.Encode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted plan: %d queries, %d bytes of JSON\n", len(plan.Queries), len(planJSON))

	// ---- Online: load the plan into a server and listen on loopback. ----
	// The binding points the plan at the feature store it was fitted
	// against — here the same in-memory log table.
	srv := serve.NewServer(serve.Config{}) // group-commit coalescing, default batch and admission limits
	if err := srv.AddPlan("kindle", planJSON, serve.PlanBinding{Relevant: logs}); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// ---- A single lookup: POST entity keys, get feature values back. ----
	resp := post(base+"/v1/plans/kindle/transform", `{"rows":[{"uid":7},{"uid":12}]}`)
	var tr struct {
		Version  int64                 `json:"version"`
		Features []string              `json:"features"`
		Rows     []map[string]*float64 `json:"rows"`
	}
	decode(resp, &tr)
	fmt.Printf("v%d features %v\n", tr.Version, tr.Features)
	for i, row := range tr.Rows {
		fmt.Printf("  row %d: %v\n", i, render(row, tr.Features))
	}

	// ---- Concurrent clients: parallel passes, fused when every slot is busy.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < 5; s++ {
				body := fmt.Sprintf(`{"rows":[{"uid":%d}]}`, (c*37+s*11)%nUsers)
				decode(post(base+"/v1/plans/kindle/transform", body), &struct{}{})
			}
		}(c)
	}
	wg.Wait()

	// ---- Hot swap: push a v2 plan; in-flight requests finish on v1. ----
	// Any refitted plan works; here v2 simply serves the plan's single best
	// query. A plan fitted against a different relevant-table schema would
	// be refused with 409 and v1 would keep serving.
	plan.Queries = plan.Queries[:1]
	v2JSON, err := plan.Encode()
	if err != nil {
		log.Fatal(err)
	}
	swap, err := http.Post(base+"/v1/plans/kindle", "application/json", bytes.NewReader(v2JSON))
	if err != nil {
		log.Fatal(err)
	}
	swap.Body.Close()
	fmt.Println("hot swap ->", swap.Status)
	decode(post(base+"/v1/plans/kindle/transform", `{"rows":[{"uid":7}]}`), &tr)
	fmt.Printf("post-swap lookup served by v%d with features %v\n", tr.Version, tr.Features)

	// ---- Stats: serve counters plus the executor's fusion counters. ----
	statsResp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st serve.Stats
	decode(statsResp, &st)
	for _, p := range st.Plans {
		fmt.Printf("plan %q v%d: %d requests (%d rows), %d solo + %d coalesced passes, %d swap(s)\n",
			p.Plan, p.Version, p.Requests, p.Rows, p.SoloBatches, p.CoalescedBatches, p.SwapCount)
	}

	// ---- Drain: stop the listener, finish queued requests, exit. ----
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	srv.Drain()
	fmt.Println("drained cleanly")
}

func post(url, body string) *http.Response {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	return resp
}

func decode(resp *http.Response, v interface{}) {
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

// render formats one response row in feature order; a nil value is a feature
// the engine returned NULL for (e.g. an entity with no matching log rows).
func render(row map[string]*float64, features []string) string {
	var b bytes.Buffer
	for i, f := range features {
		if i > 0 {
			b.WriteString(", ")
		}
		if v := row[f]; v != nil {
			fmt.Fprintf(&b, "%s=%.3f", f, *v)
		} else {
			fmt.Fprintf(&b, "%s=NULL", f)
		}
	}
	return b.String()
}
