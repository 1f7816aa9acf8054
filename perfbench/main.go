// Command perfbench is the repository's layered benchmark. One invocation runs
// one workload at one seed and prints, as the last line of standard output, a
// JSON object with the run's correctness verdict and its metrics:
//
//	go run . --workload fit-student --seed 1 --seconds 5 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (op_p50_ms, setup_s,
// peak_rss_mb, ok_frac); the tail latency and the throughput are printed on
// the "# ops=" comment line. With --trace 1 the run first makes the untraced
// measurement in a child process, then runs the same op sequence with spans
// on, then a layer phase that times the benchmark's own calls into each
// layer's public functions; the metrics are the per-layer ones. Spans are
// kept in memory and written to .bench_build/ when the run ends.
//
// Every run at a given seed performs the same fixed sequence of ops: the op
// count comes from --seconds and the workload's nominal op cost, and each op's
// inputs come from (seed, op index). run.sh builds and runs the benchmark
// from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the median.
const setupReps = 5

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// toy shrinks every input and op count to a smoke-test size.
	toy bool
	// outDir receives the span file of a traced run.
	outDir string
	// setupOnly makes the process one set-up repeat: it sets up, prints
	// the seconds that took and exits.
	setupOnly bool
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// layer sets a per-layer metric, its unit derived from its name.
func (m metrics) layer(name string, v float64) { m.set(name, perLayerUnit(name), v) }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// phase is the outcome of one pass over a workload's fixed op sequence.
type phase struct {
	lat      []float64 // per-op latency in ms, ops that failed included
	ok       []bool    // op succeeded and passed its output check
	timedSec float64   // seconds of the timed phase (ops_per_s denominator)
	proc     procStats // process counters across the timed ops
	// outDigest hashes the ops' outputs (plan JSON, canonical response
	// rows); it must match between a run's untraced and traced passes.
	outDigest uint64
}

// workload is one benchmark scenario. setup builds every input of the run
// and is timed as setup_s; run executes the fixed op sequence, and when
// traced (tr non-nil) records spans and writes the counters it reads into m;
// layers, only in traced runs, times the benchmark's calls into each layer.
type workload interface {
	setup() error
	close()
	run(tr *tracer, m metrics) (*phase, error)
	layers(tr *tracer, m metrics) error
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(cfg config) workload{
	"fit-student":        newFitStudent,
	"serve-tmall":        newServeTmall,
	"ingest-clickstream": newIngest,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: inputs are a function of it")
	fs.IntVar(&cfg.seconds, "seconds", 30, "nominal measured seconds; sizes the fixed op count")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.toy, "toy", false, "smoke-test sizes")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the span file of a traced run")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up once, print the seconds it took and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = trace == 1
	mk, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}

	if cfg.setupOnly {
		// A set-up repeat: build every input in a process of its own, so
		// no earlier set-up's tables stay resident, and print the time.
		w := mk(cfg)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		secs := time.Since(t0).Seconds()
		w.close()
		_, err := fmt.Fprintln(stdout, secs)
		return err
	}

	calibStart := calibrate()
	res := result{Correct: true, Metrics: metrics{}}
	var p50 float64
	var setups []float64
	var outDigest uint64
	if cfg.trace {
		// The untraced pass runs in a process of its own, like an untraced
		// run: the served table binds once per process (the process scan
		// scheduler keeps every bound table and its caches), so each pass
		// starts from a fresh, sole table.
		var err error
		if outDigest, p50, err = untracedChild(cfg, &res, stdout); err != nil {
			return err
		}
	} else {
		for i := 1; i < setupReps; i++ {
			out, err := self(cfg, "--setup-only")
			if err != nil {
				return fmt.Errorf("setup repeat: %w", err)
			}
			secs, err := strconv.ParseFloat(lastLine(out), 64)
			if err != nil {
				return fmt.Errorf("setup repeat: %w", err)
			}
			setups = append(setups, secs)
		}
	}
	w := mk(cfg)
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())
	defer w.close()

	var countDigest uint64
	if !cfg.trace {
		plain, err := w.run(nil, nil)
		if err != nil {
			return err
		}
		outDigest = plain.outDigest
		res.Attempted = len(plain.ok)
		for _, ok := range plain.ok {
			if !ok {
				res.Failed++
			}
		}
		var tail, tailPct float64
		var beyond int
		p50, tail, tailPct, beyond = latencySummary(plain.lat)
		// The tail and the throughput are reported on this line, not as
		// result metrics, because they follow the host's steal time far
		// past any bound (README.md, "Steadiness and bounds").
		fmt.Fprintf(stdout, "# ops=%d p50=%.3fms op_tail_ms=%.3fms (p%.2f, %d beyond) ops_per_s=%.4g 1/s setup_s=%v\n",
			len(plain.ok), p50, tail, tailPct, beyond, float64(len(plain.ok)-res.Failed)/plain.timedSec, setups)
		res.Metrics.set("op_p50_ms", "ms", p50)
		res.Metrics.set("setup_s", "s", median(setups))
		res.Metrics.set("peak_rss_mb", "MB", peakRSSMB())
		res.Metrics.set("ok_frac", "ratio", float64(len(plain.ok)-res.Failed)/float64(len(plain.ok)))
	} else {
		tr := newTracer()
		traced, err := w.run(tr, res.Metrics)
		if err != nil {
			return err
		}
		if traced.outDigest != outDigest {
			res.Correct = false
			fmt.Fprintf(stdout, "# outputs differ between the traced and untraced pass: %#x vs %#x\n", traced.outDigest, outDigest)
		}
		for _, ok := range traced.ok {
			res.Attempted++
			if !ok {
				res.Failed++
			}
		}
		if err := w.layers(tr, res.Metrics); err != nil {
			return err
		}
		countDigest = exactCounts(res.Metrics)
		tp50, _, _, _ := latencySummary(traced.lat)
		n := float64(len(traced.ok))
		res.Metrics.layer("trace.op_p50_ms", tp50)
		res.Metrics.layer("trace.overhead_ratio", tp50/p50)
		res.Metrics.layer("proc.alloc_mb_per_op", float64(traced.proc.allocBytes)/n/(1<<20))
		res.Metrics.layer("proc.gc_per_op", float64(traced.proc.gcs)/n)
		res.Metrics.layer("proc.cpu_ms_per_op", traced.proc.cpu.Seconds()*1e3/n)
		path, err := tr.write(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans: %s (%d)\n", path, len(tr.spans))
	}
	calibEnd := calibrate()
	if cfg.trace {
		res.Metrics.layer("host.calib_ms", (calibStart+calibEnd)/2)
		for _, name := range perLayerNames {
			if _, ok := res.Metrics[name]; !ok {
				// A layer this workload does not load reads as zero.
				res.Metrics.layer(name, 0)
			}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d host.calib_ms=%.2f/%.2f\n", cfg.workload, cfg.seed, calibStart, calibEnd)
	fmt.Fprintf(stdout, "# digest outputs=%#x counts=%#x\n", outDigest, countDigest)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// self runs this program again for the same workload and seed with the extra
// arguments, waits for it to end and returns its standard output.
func self(cfg config, extra ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--out", cfg.outDir}
	if cfg.toy {
		args = append(args, "--toy")
	}
	cmd := exec.Command(exe, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}

// untracedChild runs the untraced pass of a traced run as an untraced run in
// a process of its own. It forwards that run's comment lines, adds its ops to
// res and returns its output digest and median op latency.
func untracedChild(cfg config, res *result, stdout io.Writer) (digest uint64, p50 float64, err error) {
	out, err := self(cfg, "--trace", "0")
	if err != nil {
		return 0, 0, fmt.Errorf("untraced pass: %w", err)
	}
	var child result
	if err := json.Unmarshal([]byte(lastLine(out)), &child); err != nil {
		return 0, 0, fmt.Errorf("untraced pass: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.HasPrefix(line, "# ") {
			fmt.Fprintln(stdout, "# untraced:", line[2:])
		}
		if hex, ok := strings.CutPrefix(line, "# digest outputs="); ok {
			hex, _, _ = strings.Cut(hex, " ")
			if digest, err = strconv.ParseUint(hex, 0, 64); err != nil {
				return 0, 0, fmt.Errorf("untraced pass: %w", err)
			}
		}
	}
	res.Correct = res.Correct && child.Correct
	res.Attempted += child.Attempted
	res.Failed += child.Failed
	return digest, child.Metrics["op_p50_ms"].Value, nil
}

// opCount sizes a run's fixed op sequence: the number of ops of the given
// nominal cost that fit in the requested seconds, at least atLeast.
func opCount(cfg config, nominal time.Duration, atLeast int) int {
	return max(int(time.Duration(cfg.seconds)*time.Second/nominal), atLeast)
}

// opSeed derives op i's input seed from the run seed.
func opSeed(seed int64, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", seed, i)
	return int64(h.Sum64() >> 2)
}

// latencySummary returns the median and the tail latency with its
// percentile and how many samples lie beyond it. The tail is the highest
// percentile with ten samples beyond it; a pass too short for any percentile
// above the median to have ten samples beyond it reports the median.
func latencySummary(lat []float64) (p50, tail, pct float64, beyond int) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0, 0
	}
	p50 = median(s)
	if 2*(n-10) <= n {
		return p50, p50, 50, n / 2
	}
	return p50, s[n-11], 100 * float64(n-10) / float64(n), 10
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procStats are the process counters around a span of work: bytes
// allocated, GC cycles completed and CPU time (user + system).
type procStats struct {
	allocBytes uint64
	gcs        uint32
	cpu        time.Duration
}

func sampleProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procStats{allocBytes: m.TotalAlloc, gcs: m.NumGC, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// to returns the counters' change from a to b.
func (a procStats) to(b procStats) procStats {
	return procStats{allocBytes: b.allocBytes - a.allocBytes, gcs: b.gcs - a.gcs, cpu: b.cpu - a.cpu}
}

func (d *procStats) add(o procStats) {
	d.allocBytes += o.allocBytes
	d.gcs += o.gcs
	d.cpu += o.cpu
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// calibrate times a fixed memory-bound kernel: strided passes over a buffer
// larger than a typical last-level cache. It loads no program code, so its
// drift across runs measures the host, not the program. It runs before set-up
// and after peak_rss_mb is read, so its buffer never sets the peak.
func calibrate() float64 {
	const words = 2 << 20 // 16 MiB of uint64
	buf := make([]uint64, words)
	for i := range buf {
		buf[i] = uint64(i)
	}
	t0 := time.Now()
	var sum uint64
	for pass := 0; pass < 4; pass++ {
		for stride := 0; stride < 8; stride++ {
			for i := stride; i < words; i += 8 {
				sum += buf[i]
				buf[i] = sum
			}
		}
	}
	elapsed := ms(time.Since(t0))
	if sum == 42 {
		fmt.Fprint(io.Discard, sum) // keep the loop observable
	}
	return elapsed
}

// exactCounts hashes the per-layer counters a traced run reads from the
// program (pipeline.* and query.* metrics that are not times). They must be
// identical across traced runs at one seed.
func exactCounts(m metrics) uint64 {
	names := make([]string, 0, len(m))
	for name, v := range m {
		if (strings.HasPrefix(name, "pipeline.") || strings.HasPrefix(name, "query.")) && v.Unit != "ms" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var d uint64
	for _, name := range names {
		d = hashBytes(d, []byte(fmt.Sprintf("%s=%v;", name, m[name].Value)))
	}
	return d
}

// hashBytes folds b into a running FNV-1a digest.
func hashBytes(d uint64, b []byte) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(d >> (8 * i))
	}
	h.Write(seed[:])
	h.Write(b)
	return h.Sum64()
}

// hashUint64 folds one value into a running digest.
func hashUint64(d, v uint64) uint64 {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return hashBytes(d, b[:])
}

// closeTo compares an engine value with its oracle value.
func closeTo(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}
