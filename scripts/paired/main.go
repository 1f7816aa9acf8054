// Command paired compares two sets of experiment archives seed by seed: the
// parent side's and the change side's `feataug -exp E -reps 1 -json DIR`
// outputs, one run per seed. Runs pair by experiment and seed; within a pair,
// results.Compare gives each (dataset, model, method) cell's change − parent
// difference. For every cell it prints the paired differences oriented so that
// a positive one means the change scored better (a regression dataset's metric
// is an error, so its sign flips), the wins, losses and ties, their mean, the
// parent's mean metric, and a two-sided sign-test p over the untied seeds.
//
//	for s in 1 2 3; do
//		feataug -exp table3 -reps 1 -seed $s -json parent/seed$s ...   # parent build
//		feataug -exp table3 -reps 1 -seed $s -json change/seed$s ...   # change build
//	done
//	go run ./scripts/paired -parent parent -change change
//
// It prints and sets no bar; reading the table against one is the caller's
// part.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/results"
)

func main() {
	parent := flag.String("parent", "", "directory of the parent's per-seed JSON archives")
	change := flag.String("change", "", "directory of the change's per-seed JSON archives")
	flag.Parse()
	if *parent == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "paired: -parent and -change are required")
		os.Exit(2)
	}
	if err := run(*parent, *change, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paired:", err)
		os.Exit(1)
	}
}

// runKey names one archived run: its experiment and its seed.
type runKey struct {
	experiment string
	seed       float64
}

// cell accumulates one (dataset, model, method) cell across seeds.
type cell struct {
	diffs   []float64 // oriented change − parent, in seed order
	parents []float64
}

func run(parentDir, changeDir string, w io.Writer) error {
	a, err := readRuns(parentDir)
	if err != nil {
		return err
	}
	b, err := readRuns(changeDir)
	if err != nil {
		return err
	}
	var keys []runKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no (experiment, seed) run in both %s and %s", parentDir, changeDir)
	}
	slices.SortFunc(keys, func(x, y runKey) int {
		if c := strings.Compare(x.experiment, y.experiment); c != 0 {
			return c
		}
		return cmp.Compare(x.seed, y.seed)
	})
	cells := map[string]*cell{}
	lowerBetter := map[string]bool{}
	for _, k := range keys {
		parentMetric := map[string]float64{}
		for _, r := range a[k].Rows {
			parentMetric[r.Dataset+"/"+r.Model+"/"+r.Method] = r.Metric
		}
		for row, d := range results.Compare(a[k], b[k]) {
			dataset := row[:strings.IndexByte(row, '/')]
			lower, ok := lowerBetter[dataset]
			if !ok {
				if lower, err = errorMetric(dataset); err != nil {
					return err
				}
				lowerBetter[dataset] = lower
			}
			if lower {
				d = 0 - d // not -d, which turns a tie into -0
			}
			name := k.experiment + "/" + row
			c := cells[name]
			if c == nil {
				c = &cell{}
				cells[name] = c
			}
			c.diffs = append(c.diffs, d)
			c.parents = append(c.parents, parentMetric[row])
		}
	}
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "# %d paired runs; diff = change − parent, oriented so > 0 is better for the change\n", len(keys))
	fmt.Fprintf(w, "%-36s %4s %4s %4s %4s %10s %10s %7s  %s\n",
		"experiment/dataset/model/method", "n", "win", "loss", "tie", "mean_diff", "parent", "sign_p", "diffs")
	for _, name := range names {
		c := cells[name]
		var wins, losses int
		for _, d := range c.diffs {
			switch {
			case d > 0:
				wins++
			case d < 0:
				losses++
			}
		}
		diffs := make([]string, len(c.diffs))
		for i, d := range c.diffs {
			diffs[i] = fmt.Sprintf("%+.4f", d)
		}
		fmt.Fprintf(w, "%-36s %4d %4d %4d %4d %+10.4f %10.4f %7.4f  %s\n",
			name, len(c.diffs), wins, losses, len(c.diffs)-wins-losses,
			mean(c.diffs), mean(c.parents), signTest(wins, losses), strings.Join(diffs, " "))
	}
	return nil
}

// readRuns reads every .json archive under dir, keyed by experiment and the
// seed its config records.
func readRuns(dir string) (map[runKey]*results.Run, error) {
	runs := map[runKey]*results.Run{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := results.ReadJSON(f)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		seed, ok := r.Config["seed"].(float64)
		if !ok {
			return fmt.Errorf("%s: no seed in the run's config", path)
		}
		k := runKey{r.Experiment, seed}
		if _, dup := runs[k]; dup {
			return fmt.Errorf("%s: a second %s run at seed %v", path, r.Experiment, seed)
		}
		runs[k] = r
		return nil
	})
	return runs, err
}

// errorMetric reports whether the named dataset's task scores with an error
// (lower is better), generating a small copy of it to learn its task.
func errorMetric(dataset string) (bool, error) {
	gen, err := datagen.ByName(dataset)
	if err != nil {
		return false, err
	}
	return !ml.HigherIsBetter(gen(datagen.Options{TrainRows: 20, LogsPerKey: 1, Seed: 1}).Task), nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// signTest is the two-sided sign test's p for wins against losses, ties
// dropped: twice the binomial(n, 1/2) tail at the smaller count, at most 1.
func signTest(wins, losses int) float64 {
	n := wins + losses
	k := min(wins, losses)
	tail := 0.0
	for i := 0; i <= k; i++ {
		tail += math.Exp(lchoose(n, i) - float64(n)*math.Ln2)
	}
	return math.Min(1, 2*tail)
}

// lchoose is log C(n, k).
func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}
