package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/feataug"
	"repro/internal/query"
)

// studentPlanJSON handcrafts a small plan over the student dataset's schema
// (session_id int key; the fit's search output is irrelevant to the serving
// plumbing under test).
func studentPlanJSON(t *testing.T, d *datagen.Dataset, n int) []byte {
	t.Helper()
	var qs []feataug.PlannedQuery
	for i := 0; i < n; i++ {
		qs = append(qs, feataug.PlannedQuery{
			Feature: fmt.Sprintf("feataug_%d", i),
			Query:   query.Query{Agg: []agg.Func{agg.Sum, agg.Avg, agg.Count}[i%3], AggAttr: d.AggAttrs[i%len(d.AggAttrs)], Keys: d.Keys},
		})
	}
	p := &feataug.FeaturePlan{Version: feataug.PlanVersion, Keys: d.Keys, Queries: qs}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// lineWaiter scans a writer's lines for prefixes, handing back the first
// matching line — the test's sync point on the daemon's "listening on" output.
type lineWaiter struct {
	w  *io.PipeWriter
	ch chan string
}

func newLineWaiter(prefix string) *lineWaiter {
	pr, pw := io.Pipe()
	lw := &lineWaiter{w: pw, ch: make(chan string, 1)}
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), prefix) {
				select {
				case lw.ch <- sc.Text():
				default:
				}
			}
		}
	}()
	return lw
}

// TestDaemonEndToEnd boots the daemon on a free port, issues a transform, a
// failing swap (corrupt bytes), a succeeding swap, checks /v1/stats, then
// cancels the context (the SIGTERM path) and requires a clean exit.
func TestDaemonEndToEnd(t *testing.T) {
	gen, err := datagen.ByName("student")
	if err != nil {
		t.Fatal(err)
	}
	d := gen(datagen.Options{TrainRows: 150, LogsPerKey: 4, Seed: 1})
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(planPath, studentPlanJSON(t, d, 2), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lw := newLineWaiter("feataugd: listening on ")
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-data", "student", "-rows", "150", "-logs", "4", "-seed", "1",
			"-plan", "student=" + planPath,
		}, lw.w, &stderr)
	}()

	var baseURL string
	select {
	case line := <-lw.ch:
		baseURL = "http://" + strings.TrimPrefix(line, "feataugd: listening on http://")
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v (stderr: %s)", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never started listening")
	}

	// Transform: real entity keys from the training table.
	key := d.Train.Column(d.Keys[0]).Int(0)
	body := fmt.Sprintf(`{"rows":[{"%s":%d},{"%s":999999}]}`, d.Keys[0], key, d.Keys[0])
	resp, err := http.Post(baseURL+"/v1/plans/student/transform", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Version  int64                 `json:"version"`
		Features []string              `json:"features"`
		Rows     []map[string]*float64 `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tr.Version != 1 || len(tr.Rows) != 2 || len(tr.Features) != 2 {
		t.Fatalf("transform = %d v%d, %d rows %d features; want 200 v1, 2 rows 2 features",
			resp.StatusCode, tr.Version, len(tr.Rows), len(tr.Features))
	}

	// Corrupt swap is refused and serving continues.
	resp, err = http.Post(baseURL+"/v1/plans/student", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt swap status = %d, want 400", resp.StatusCode)
	}

	// Valid swap to a 3-feature plan bumps the version.
	resp, err = http.Post(baseURL+"/v1/plans/student", "application/json", bytes.NewReader(studentPlanJSON(t, d, 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(baseURL+"/v1/plans/student/transform", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	tr.Features = nil
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.Version != 2 || len(tr.Features) != 3 {
		t.Fatalf("post-swap transform = v%d with %d features, want v2 with 3", tr.Version, len(tr.Features))
	}

	// Streaming ingest: append two events (one with NULLs) into the bound
	// relevant table, then transform again — the new rows must be visible.
	appendBody := fmt.Sprintf(`{"rows":[
		{"session_id":%d,"event_name":"click","level":3,"elapsed_time":120,"room_coor_x":1.5,"room_coor_y":-2.0,"hover_duration":40},
		{"session_id":%d,"event_name":"nav","level":4,"elapsed_time":null}
	]}`, key, key)
	resp, err = http.Post(baseURL+"/v1/plans/student/append", "application/json", strings.NewReader(appendBody))
	if err != nil {
		t.Fatal(err)
	}
	var ar struct {
		Appended  int    `json:"appended"`
		Epoch     uint64 `json:"epoch"`
		TableRows int    `json:"table_rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ar.Appended != 2 || ar.Epoch != 1 {
		t.Fatalf("append = %d %+v, want 200 with 2 rows at epoch 1", resp.StatusCode, ar)
	}
	resp, err = http.Post(baseURL+"/v1/plans/student/transform", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-append transform status = %d", resp.StatusCode)
	}

	// Stats reflect the traffic.
	resp, err = http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Plans []struct {
			Plan         string `json:"plan"`
			Requests     int64  `json:"requests"`
			SwapCount    int64  `json:"swap_count"`
			Appends      int64  `json:"appends"`
			AppendedRows int64  `json:"appended_rows"`
			TableEpoch   uint64 `json:"table_epoch"`
		} `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Plans) != 1 || st.Plans[0].Requests != 3 || st.Plans[0].SwapCount != 1 {
		t.Fatalf("stats = %+v; want 1 plan with 3 requests, 1 swap", st)
	}
	if st.Plans[0].Appends != 1 || st.Plans[0].AppendedRows != 2 || st.Plans[0].TableEpoch != 1 {
		t.Fatalf("append stats = %+v; want 1 append of 2 rows at table epoch 1", st.Plans[0])
	}

	// The SIGTERM path: context cancellation must drain and exit nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit = %v, want nil (stderr: %s)", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}
}

// TestDaemonLoadgen runs the self-measuring mode end to end and checks the
// result JSON lands with sane numbers.
func TestDaemonLoadgen(t *testing.T) {
	gen, err := datagen.ByName("student")
	if err != nil {
		t.Fatal(err)
	}
	d := gen(datagen.Options{TrainRows: 150, LogsPerKey: 4, Seed: 1})
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	outPath := filepath.Join(dir, "loadgen.json")
	if err := os.WriteFile(planPath, studentPlanJSON(t, d, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err = run(context.Background(), []string{
		"-data", "student", "-rows", "150", "-logs", "4", "-seed", "1",
		"-plan", "student=" + planPath,
		"-loadgen", "-clients", "4", "-requests", "10", "-req-rows", "2",
		"-loadgen-out", outPath,
	}, syncWriter{&stdout, &sync.Mutex{}}, &stderr)
	if err != nil {
		t.Fatalf("loadgen run: %v (stderr: %s)", err, stderr.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Requests int     `json:"requests"`
		Rows     int     `json:"rows"`
		Failed   int     `json:"failed"`
		P50      float64 `json:"p50_ms"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 || res.Rows != 80 || res.Failed != 0 || res.P50 <= 0 {
		t.Fatalf("loadgen result = %+v, want 40 requests / 80 rows / 0 failed / positive p50", res)
	}
}

// syncWriter serialises concurrent writes in tests.
type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
