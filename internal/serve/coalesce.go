package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dataframe"
	"repro/internal/query"
)

// coalescer micro-batches concurrent transform requests against one plan
// into fused AugmentMatrix passes by group commit, with up to limit passes
// in flight at once (limit is runtime.GOMAXPROCS(0) when the coalescer is
// built). A request that finds a free pass slot starts its own pass at once
// on its own goroutine; requests that arrive while every slot is busy queue
// up. When a pass finishes with a non-empty queue, its slot goes straight to
// the next pass — whole requests up to maxRows (at least one), any remainder
// left for the pass after — on a fresh goroutine, so the finishing caller
// returns straight away; a pass that finds the queue empty frees its slot.
// The queue is therefore non-empty only while every slot is busy, so a later
// arrival never overtakes a queued request, and under GOMAXPROCS=1 this is
// plain one-pass-at-a-time group commit. There is no timer: a lone request
// never waits for company, and every queued request has running passes that
// will serve it (swap and drain need no flush).
//
// Results are bit-identical to a solo pass — each row's features depend only
// on its join keys against the relevant table, never on the other rows
// sharing the pass or on passes running beside it (the differential tests
// enforce this); Transformer.Matrix is safe for concurrent passes.
type coalescer struct {
	tr      Transformer
	maxRows int
	limit   int // passes that may run at once
	// onBatch receives (waiters, rows) after each pass for stats.
	onBatch func(waiters, rows int)

	mu      sync.Mutex
	running int       // passes in flight; at limit, new requests queue
	pending []*waiter // requests queued for the next passes, arrival order
}

// waiter is one request: its typed key table and the channel its scattered
// result arrives on (buffered, so a pass never blocks on a waiter that gave
// up).
type waiter struct {
	tbl  *dataframe.Table
	rows int
	ch   chan waitResult
}

type waitResult struct {
	m         *query.FeatureMatrix
	coalesced bool
	err       error
}

func newCoalescer(tr Transformer, maxRows int, onBatch func(waiters, rows int)) *coalescer {
	return &coalescer{tr: tr, maxRows: maxRows, limit: runtime.GOMAXPROCS(0), onBatch: onBatch}
}

// do serves one request table. With a pass slot free the request runs its
// own pass inline and returns that pass's result; otherwise it queues for the
// next pass to finish and blocks until its rows are scattered back or ctx is
// cancelled (the pass then still serves the other waiters, and this waiter's
// slice is dropped).
func (c *coalescer) do(ctx context.Context, tbl *dataframe.Table) waitResult {
	w := &waiter{tbl: tbl, rows: tbl.NumRows(), ch: make(chan waitResult, 1)}
	c.mu.Lock()
	if c.running == c.limit {
		c.pending = append(c.pending, w)
		c.mu.Unlock()
		select {
		case res := <-w.ch:
			return res
		case <-ctx.Done():
			return waitResult{err: ctx.Err()}
		}
	}
	c.running++
	c.mu.Unlock()
	c.pass([]*waiter{w})
	return <-w.ch
}

// pass runs one batch in a slot the caller holds, then hands the slot on.
func (c *coalescer) pass(batch []*waiter) {
	c.run(batch)
	c.handOff()
}

// handOff gives up the caller's pass slot: whatever queued meanwhile runs as
// the next pass in the same slot on a new goroutine, or the slot frees when
// nothing did. Keeping the slot while the queue is non-empty is what holds
// the invariant that a queued request never waits while a slot sits idle.
func (c *coalescer) handOff() {
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.running--
		c.mu.Unlock()
		return
	}
	next := c.takeLocked()
	c.mu.Unlock()
	go c.pass(next)
}

// takeLocked claims the next batch from the queue: whole requests in arrival
// order while they fit in maxRows, and always at least one, so a request
// larger than maxRows runs alone. Callers hold c.mu with a non-empty queue.
func (c *coalescer) takeLocked() []*waiter {
	n, rows := 1, c.pending[0].rows
	for n < len(c.pending) && rows+c.pending[n].rows <= c.maxRows {
		rows += c.pending[n].rows
		n++
	}
	batch := c.pending[:n:n]
	if n == len(c.pending) {
		c.pending = nil
	} else {
		c.pending = append([]*waiter(nil), c.pending[n:]...)
	}
	return batch
}

// run executes one batch as a single fused pass and scatters row ranges back
// to the waiters. The pass runs under context.Background(): a batch serves
// many requests, so one caller's cancellation must not abort the others
// (cancelled callers stop waiting in do; their rows compute harmlessly). A
// panicking pass fails only its own batch: the chain of passes must keep
// going, or every queued and later request would wait forever.
func (c *coalescer) run(batch []*waiter) {
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("serve: transform pass panicked: %v", p)
			for _, w := range batch {
				select {
				case w.ch <- waitResult{err: err}:
				default: // already answered
				}
			}
		}
	}()
	var d *dataframe.Table
	var err error
	rows := 0
	if len(batch) == 1 {
		d, rows = batch[0].tbl, batch[0].rows
	} else {
		tbls := make([]*dataframe.Table, len(batch))
		for i, w := range batch {
			tbls[i] = w.tbl
			rows += w.rows
		}
		d, err = dataframe.Concat(tbls...)
	}
	var m *query.FeatureMatrix
	if err == nil {
		m, err = c.tr.Matrix(context.Background(), d)
	}
	if err != nil {
		for _, w := range batch {
			w.ch <- waitResult{err: err}
		}
		return
	}
	// Stats first, so a caller woken by its result reads counters that
	// already include the pass that served it.
	c.onBatch(len(batch), rows)
	if len(batch) == 1 {
		batch[0].ch <- waitResult{m: m}
	} else {
		lo := 0
		for _, w := range batch {
			hi := lo + w.rows
			w.ch <- waitResult{m: m.RowSlice(lo, hi), coalesced: true}
			lo = hi
		}
	}
}
