package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one op share its op
// index; a layer span's parent is the span that caused it (-1 for roots).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// durations returns the durations in ms of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// perOp sums the durations of the named spans per op and returns the median
// of those per-op sums; ops without such a span count as zero.
func (t *tracer) perOp(name string, ops int) float64 {
	t.mu.Lock()
	sums := make([]float64, ops)
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && s.Op >= 0 && s.Op < ops {
			sums[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	t.mu.Unlock()
	return median(sums)
}

// write stores the spans as JSON lines and returns the file path.
func (t *tracer) write(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// perLayerNames lists every metric a traced run reports. BENCHMARK.json's
// per_layer list names the same set; the self-test checks both agree.
var perLayerNames = []string{
	"feataug.qti_ms", "feataug.warmup_ms", "feataug.generate_ms", "feataug.materialize_ms",
	"pipeline.model_fits", "pipeline.proxy_evals", "pipeline.loss_ms",
	"ml.fit_ms", "ml.assemble_ms",
	"stats.proxy_ms", "hpo.suggest_ms",
	"query.feature_ms", "query.space_ms", "query.core_queries", "query.fused_queries",
	"query.scan_passes", "query.morsels_scanned", "query.plan_hit_ratio", "query.engine_ms",
	"query.delta_rows_scanned", "query.dirty_group_resorts", "query.full_rebuilds",
	"serve.transform_ms", "serve.codec_ms", "serve.coalesce_wait_ms", "serve.req_per_pass",
	"serve.append_ms", "serve.fresh_transform_ms",
	"dataframe.bytes_per_row",
	"proc.alloc_mb_per_op", "proc.gc_per_op", "proc.cpu_ms_per_op",
	"host.calib_ms", "trace.op_p50_ms", "trace.overhead_ratio",
}

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_per_op"):
		return "ms"
	case strings.HasSuffix(name, "_mb_per_op"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_pass"):
		return "ratio"
	case name == "dataframe.bytes_per_row":
		return "B"
	case strings.HasPrefix(name, "pipeline."), strings.HasPrefix(name, "query."), strings.HasPrefix(name, "proc."):
		return "count"
	}
	panic(fmt.Sprintf("perfbench: no unit for %q", name))
}
