package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the self-test run the benchmark as a separate process, the
// way it is run for real: process-level caches start empty in every run.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runToy runs one workload at toy size in a fresh process and returns its
// result line and the digest line before it.
func runToy(t *testing.T, workload, trace string) (result, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "7", "--trace", trace, "--toy", "--out", t.TempDir())
	cmd.Env = append(os.Environ(), "PERFBENCH_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s --trace %s: %v\n%s\n%s", workload, trace, err, out, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: short output:\n%s", workload, out)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out)
	}
	return res, lines[len(lines)-2]
}

// TestWorkloadsAtToySize runs every workload untraced and traced: every
// output check passes and exactly the metrics BENCHMARK.json names are
// emitted, with its units.
func TestWorkloadsAtToySize(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for trace, want := range map[string]map[string]string{"0": units(spec.EndToEnd), "1": units(spec.PerLayer)} {
			res, _ := runToy(t, wl.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(keys(want), ",") {
				t.Errorf("%s --trace %s: metrics %v, want %v", wl.Name, trace, got, keys(want))
			}
			for name, m := range res.Metrics {
				if want[name] != m.Unit {
					t.Errorf("%s: %s unit %q, want %q", wl.Name, name, m.Unit, want[name])
				}
			}
			if trace == "0" && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v", wl.Name, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestWorkRepeats runs each workload's traced run twice at one seed: the
// outputs (plan JSON, response rows) and the exact work counts agree.
func TestWorkRepeats(t *testing.T) {
	for _, wl := range loadSpec(t).Workloads {
		_, first := runToy(t, wl.Name, "1")
		_, second := runToy(t, wl.Name, "1")
		if !strings.HasPrefix(first, "# digest") || first != second {
			t.Errorf("%s: work differs between runs at one seed:\n%s\n%s", wl.Name, first, second)
		}
	}
}

// TestPerLayerNamesMatchSpec keeps perLayerNames and BENCHMARK.json in step.
func TestPerLayerNamesMatchSpec(t *testing.T) {
	spec := units(loadSpec(t).PerLayer)
	if len(spec) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the benchmark %d", len(spec), len(perLayerNames))
	}
	for _, name := range perLayerNames {
		if spec[name] != perLayerUnit(name) {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark unit %q", name, spec[name], perLayerUnit(name))
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
