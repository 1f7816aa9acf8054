package query

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// withMorselRows sets the executor's morsel size (n > 0) for its plan and
// scatter scans. Tests use small sizes so scans cross many morsel
// boundaries; production code keeps dataframe.DefaultMorselRows.
func withMorselRows(n int) ExecutorOption {
	return func(e *Executor) { e.morselRows = n }
}

// TestMorselCancellation cancels mid-morsel-stream: a batch over a tiny
// morsel size must observe the context at a morsel boundary (well before the
// batch would complete), return promptly with ctx.Err(), and leave no
// goroutines behind.
func TestMorselCancellation(t *testing.T) {
	r := largeRandomTable(400, 191)
	rng := rand.New(rand.NewSource(192))
	qs := randomPool(rng, 40)

	// Learn the full batch's morsel count on a twin executor.
	warm := NewExecutor(r, withMorselRows(7))
	warm.Parallelism = 1
	if _, err := warm.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	total := warm.Stats().MorselsScanned
	if total < 100 {
		t.Fatalf("fixture too small: full batch scanned only %d morsels", total)
	}

	baseline := runtime.NumGoroutine()
	ex := NewExecutor(r, withMorselRows(7))
	ex.Parallelism = 1
	ctx := newStatCtx(func() bool { return ex.Stats().MorselsScanned >= 20 })
	_, err := ex.ExecuteBatchContext(ctx, qs, "f")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ex.Stats().MorselsScanned; got >= total/2 {
		t.Fatalf("scanned %d of %d morsels after cancellation at 20 — not prompt", got, total)
	}
	// No leaked goroutines: the worker pool must drain after cancellation.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutine leak after cancellation: %d before, %d after", baseline, g)
	}
}
