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
	if _, err := warm.AugmentMatrix(context.Background(), r, qs); err != nil {
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
	_, err := ex.AugmentMatrix(ctx, r, qs)
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

// TestMorselsExactCover requires morselSegments to tile every row list in
// order: each segment starts where the last ended, is non-empty, holds rows
// of one morsel only, and is maximal (its neighbour starts a new morsel).
// Row lists are the identity (every segment but the last is a full morsel)
// and random ascending subsets of 0..nrows.
func TestMorselsExactCover(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for nrows := 0; nrows <= 40; nrows++ {
		for size := 1; size <= 9; size++ {
			ident := make([]int32, nrows)
			var sub []int32
			for i := range ident {
				ident[i] = int32(i)
				if rng.Intn(3) > 0 {
					sub = append(sub, int32(i))
				}
			}
			for _, rows := range [][]int32{ident, sub} {
				segs := morselSegments(rows, size)
				next := 0
				for i, sg := range segs {
					if sg[0] != next || sg[1] <= sg[0] {
						t.Fatalf("rows %v size %d: segment %d = %v after %d (gap, overlap or empty)", rows, size, i, sg, next)
					}
					if m := int(rows[sg[0]]) / size; int(rows[sg[1]-1])/size != m || (i > 0 && int(rows[sg[0]-1])/size == m) {
						t.Fatalf("rows %v size %d: segment %d = %v is not one maximal morsel", rows, size, i, sg)
					}
					next = sg[1]
				}
				if next != len(rows) {
					t.Fatalf("rows %v size %d: segments cover %d of %d rows", rows, size, next, len(rows))
				}
				if len(rows) == nrows && len(segs) != (nrows+size-1)/size {
					t.Fatalf("identity rows of %d, size %d: %d segments, want %d", nrows, size, len(segs), (nrows+size-1)/size)
				}
			}
		}
	}
}
