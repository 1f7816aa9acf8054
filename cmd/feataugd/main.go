// Command feataugd is the online feature-serving daemon: it loads fitted
// FeaturePlan / MultiFeaturePlan JSON files, binds each to the relevant
// table(s) of a built-in dataset scenario, and serves entity feature lookups
// over HTTP with request coalescing, admission control and plan hot-swap
// (see internal/serve). Coalescing is group commit: each plan runs up to
// GOMAXPROCS transform passes at once, a request that finds a pass slot free
// starts its pass at once, and requests arriving while every slot is busy
// share the next pass to finish (at most -max-batch rows each). Request bodies are capped at serve.MaxBodyBytes
// (413 above it), and slow or idle connections are cut by fixed read and
// idle timeouts.
//
// Usage:
//
//	feataug -fit student -rows 400 -seed 1 -plan-out student.json
//	feataugd -addr 127.0.0.1:8080 -data student -rows 400 -seed 1 -plan student=student.json
//
//	curl -s localhost:8080/v1/plans
//	curl -s -X POST localhost:8080/v1/plans/student/transform \
//	     -d '{"rows":[{"session_id":7},{"session_id":12}]}'
//	curl -s -X POST localhost:8080/v1/plans/student/append \
//	     -d '{"rows":[{"session_id":7,"action":"view","duration":12.5,"ts":100031}]}'
//	curl -s -X POST localhost:8080/v1/plans/student --data-binary @student.v2.json
//	curl -s localhost:8080/v1/stats
//
// POST /v1/plans/{name}/append absorbs streaming rows into the plan's bound
// relevant table without rebinding or swapping: rows carry the table's full
// schema (missing or null values become NULLs), the append runs through the
// engine's epoch fence, and the bound executors advance their caches over
// just the new rows on the next request. Single-table plans only. GET
// /v1/stats reports the ingest side per plan — "appends" and "appended_rows"
// count absorbed batches, "table_epoch" is the bound table's append epoch —
// and the executor counters show how the engine kept up (DeltaAppends,
// DeltaRowsScanned, DirtyGroupResorts, FullRebuilds).
//
// The -data scenario must regenerate the same relevant table(s) the plan was
// fitted against (same dataset, -rows, -logs, -seed), mirroring a production
// serving process pointed at the feature store the plan was learned on. At
// bind time the daemon eagerly dictionary-encodes the bound tables' string
// columns, so the first request hits the branch-free code kernels instead of
// paying the encode pass; GET /v1/stats surfaces the per-plan executor
// counters (DictEncodes, DictHits, CodePredScans) alongside the scatter and
// shared-scan ones. A
// dataset:split=column scenario rebuilds the per-value shards of the
// relevant table and binds a MultiFeaturePlan across them.
//
// SIGTERM / SIGINT shut the daemon down gracefully: the listener stops,
// in-flight and queued requests finish on their plans' running passes, and
// the process exits 0.
//
// -loadgen switches to load-generation mode: the daemon starts in-process,
// hammers itself with concurrent clients, prints the p50/p99 latency and
// throughput summary, and exits (machine-readable JSON with -loadgen-out).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/feataug"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "feataugd:", err)
		os.Exit(1)
	}
}

// planFlags collects repeatable -plan name=path mappings.
type planFlags []struct{ name, path string }

func (p *planFlags) String() string {
	var parts []string
	for _, e := range *p {
		parts = append(parts, e.name+"="+e.path)
	}
	return strings.Join(parts, ",")
}

func (p *planFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*p = append(*p, struct{ name, path string }{name, path})
	return nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("feataugd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var plans planFlags
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		data        = fs.String("data", "", "dataset scenario backing the plans' relevant tables: dataset or dataset:split=column")
		rows        = fs.Int("rows", 400, "training rows of the regenerated dataset (match the fit)")
		logs        = fs.Int("logs", 8, "mean relevant rows per training key (match the fit)")
		seed        = fs.Int64("seed", 1, "dataset seed (match the fit)")
		maxBatch    = fs.Int("max-batch", serve.DefaultMaxBatchRows, "cap on the rows of one coalesced pass (1 gives every request its own pass)")
		maxInflight = fs.Int("max-inflight", serve.DefaultMaxInflightRows, "reject requests beyond this many in-flight rows per plan (429)")
		verbose     = fs.Bool("v", false, "log serving events to stderr")
		loadgen     = fs.Bool("loadgen", false, "load-generation mode: serve in-process, measure latency/throughput, exit")
		clients     = fs.Int("clients", 16, "loadgen: concurrent clients")
		requests    = fs.Int("requests", 200, "loadgen: requests per client")
		reqRows     = fs.Int("req-rows", 4, "loadgen: entity rows per request")
		loadgenOut  = fs.String("loadgen-out", "", "loadgen: also write the result JSON to this file")
	)
	fs.Var(&plans, "plan", "serve a plan: name=path/to/plan.json (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data is required (a built-in dataset scenario, e.g. -data student)")
	}
	if len(plans) == 0 {
		return fmt.Errorf("at least one -plan name=path is required")
	}

	dataset, splitCol, err := parseScenario(*data)
	if err != nil {
		return err
	}
	gen, err := datagen.ByName(dataset)
	if err != nil {
		return err
	}
	d := gen(datagen.Options{TrainRows: *rows, LogsPerKey: *logs, Seed: *seed})

	cfg := serve.Config{MaxBatchRows: *maxBatch, MaxInflightRows: *maxInflight}
	if *verbose {
		cfg.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	srv := serve.NewServer(cfg)
	for _, p := range plans {
		planJSON, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		binding, err := bindingFor(d, splitCol, planJSON)
		if err != nil {
			return fmt.Errorf("plan %q: %w", p.name, err)
		}
		if err := srv.AddPlan(p.name, planJSON, binding); err != nil {
			return fmt.Errorf("plan %q: %w", p.name, err)
		}
		fmt.Fprintf(stdout, "feataugd: plan %q loaded from %s\n", p.name, p.path)
	}

	if *loadgen {
		return runLoadgen(ctx, srv, d, plans[0].name, *clients, *requests, *reqRows, *loadgenOut, stdout)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	fmt.Fprintf(stdout, "feataugd: listening on http://%s\n", ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight and queued requests
	// finish, then exit 0.
	fmt.Fprintln(stdout, "feataugd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	srv.Drain()
	fmt.Fprintln(stdout, "feataugd: drained")
	return nil
}

// Connection timeouts of the daemon's HTTP servers. A client gets
// readHeaderTimeout to send its request headers and readTimeout for the whole
// request, body included (a body is at most serve.MaxBodyBytes); a kept-alive
// connection with no next request is closed after idleTimeout. There is no
// write timeout: a response waits on the plan's transform pass, which
// admission control already bounds.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer wraps h in an http.Server with the daemon's timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// parseScenario splits "dataset" / "dataset:split=column" (the cmd/feataug
// scenario grammar).
func parseScenario(spec string) (dataset, splitCol string, err error) {
	dataset, mod, ok := strings.Cut(spec, ":")
	if !ok {
		return dataset, "", nil
	}
	col, ok := strings.CutPrefix(mod, "split=")
	if !ok || col == "" || dataset == "" {
		return "", "", fmt.Errorf("bad scenario %q: want dataset or dataset:split=column", spec)
	}
	return dataset, col, nil
}

// bindingFor builds the plan's relevant-table binding from the dataset
// scenario: the whole relevant table for a single-table scenario, or the
// per-source shards a MultiFeaturePlan names for a split scenario (a source
// with no matching rows binds an empty shard; its features serve NULL).
func bindingFor(d *datagen.Dataset, splitCol string, planJSON []byte) (serve.PlanBinding, error) {
	if splitCol == "" {
		return serve.PlanBinding{Relevant: d.Relevant}, nil
	}
	mp, err := feataug.DecodeMultiPlan(planJSON)
	if err != nil {
		return serve.PlanBinding{}, fmt.Errorf("split scenario needs a multi-table plan: %w", err)
	}
	col := d.Relevant.Column(splitCol)
	if col == nil {
		return serve.PlanBinding{}, fmt.Errorf("split column %q not in relevant table", splitCol)
	}
	if col.Kind() != dataframe.KindString {
		return serve.PlanBinding{}, fmt.Errorf("split column %q is %s; splitting needs a string column", splitCol, col.Kind())
	}
	sources := make(map[string]*dataframe.Table, len(mp.Sources))
	for _, name := range mp.SourceNames() {
		var idx []int
		for i := 0; i < d.Relevant.NumRows(); i++ {
			if !col.IsNull(i) && col.Str(i) == name {
				idx = append(idx, i)
			}
		}
		sources[name] = d.Relevant.Shard(idx)
	}
	return serve.PlanBinding{Sources: sources}, nil
}

// runLoadgen serves in-process on a loopback port and measures itself.
func runLoadgen(ctx context.Context, srv *serve.Server, d *datagen.Dataset, plan string, clients, requests, reqRows int, outPath string, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	newRow, err := rowSampler(d, plan, srv)
	if err != nil {
		return err
	}
	res, err := serve.RunLoadgen(ctx, serve.LoadgenConfig{
		URL:            "http://" + ln.Addr().String(),
		Plan:           plan,
		Clients:        clients,
		Requests:       requests,
		RowsPerRequest: reqRows,
		NewRow:         newRow,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res)
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loadgen: result JSON -> %s\n", outPath)
	}
	return nil
}

// rowSampler builds loadgen request rows by cycling through the training
// table's key values, so requests hit real entities.
func rowSampler(d *datagen.Dataset, plan string, srv *serve.Server) (func(client, seq, row int) map[string]interface{}, error) {
	st := srv.Stats()
	idx := sort.Search(len(st.Plans), func(i int) bool { return st.Plans[i].Plan >= plan })
	if idx == len(st.Plans) || st.Plans[idx].Plan != plan {
		return nil, fmt.Errorf("loadgen: plan %q not loaded", plan)
	}
	keys := d.Keys
	cols := make([]*dataframe.Column, len(keys))
	for i, k := range keys {
		cols[i] = d.Train.Column(k)
		if cols[i] == nil {
			return nil, fmt.Errorf("loadgen: key %q not in training table", k)
		}
	}
	n := d.Train.NumRows()
	return func(client, seq, row int) map[string]interface{} {
		i := (client*7919 + seq*131 + row) % n
		m := make(map[string]interface{}, len(keys))
		for j, k := range keys {
			c := cols[j]
			switch c.Kind() {
			case dataframe.KindInt, dataframe.KindTime:
				m[k] = c.Int(i)
			case dataframe.KindFloat:
				m[k] = c.Float(i)
			case dataframe.KindString:
				m[k] = c.Str(i)
			case dataframe.KindBool:
				m[k] = c.Bool(i)
			}
		}
		return m
	}, nil
}
