package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/results"
)

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		wins, losses int
		want         float64
	}{
		{0, 0, 1},
		{1, 1, 1},
		{10, 0, 2.0 / 1024},
		{9, 1, 2 * 11.0 / 1024},
		{1, 9, 2 * 11.0 / 1024},
		{5, 5, 1},
	} {
		if got := signTest(c.wins, c.losses); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.wins, c.losses, got, c.want)
		}
	}
}

// TestRunPairsBySeed writes two seeds of archives per side and checks the
// pairing, the regression sign flip and the counts.
func TestRunPairsBySeed(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, seed int, student, merchant float64) {
		run := results.NewRun("table3", map[string]interface{}{"seed": seed})
		run.Add(results.Row{Dataset: "student", Model: "XGB", Method: "FeatAug", Metric: student})
		run.Add(results.Row{Dataset: "merchant", Model: "XGB", Method: "FeatAug", Metric: merchant})
		sub := filepath.Join(dir, side, "seed"+string(rune('0'+seed)))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(sub, "table3.json"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := run.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
	}
	write("a", 1, 0.5, 2.0)
	write("a", 2, 0.6, 2.0)
	write("b", 1, 0.75, 1.5) // student better, merchant's error lower: better
	write("b", 2, 0.6, 2.5)  // student tied, merchant worse
	var out strings.Builder
	if err := run(filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want a comment, a header and two cells:\n%s", out.String())
	}
	for i, want := range []string{
		"table3/merchant/XGB/FeatAug 2 1 1 0 +0.0000 2.0000 1.0000 +0.5000 -0.5000",
		"table3/student/XGB/FeatAug 2 1 0 1 +0.1250 0.5500 1.0000 +0.2500 +0.0000",
	} {
		if got := strings.Join(strings.Fields(lines[2+i]), " "); got != want {
			t.Errorf("cell line %d = %q, want %q", i, got, want)
		}
	}
}
