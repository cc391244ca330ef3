package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Backpressure errors. The HTTP layer maps errBusy to 429 Too Many
// Requests and errClosed to 503 Service Unavailable.
var (
	// errBusy means the admission queue is full: the client should back
	// off and retry.
	errBusy = errors.New("server: compile queue full")
	// errClosed means the server is draining for shutdown.
	errClosed = errors.New("server: shutting down")
)

// pool is the admission gate every compilation request passes. Work runs
// on the caller's own goroutine once it holds one of the gate's slots
// (a buffered channel used as a semaphore), so at most Workers
// compilations run at once; up to QueueDepth more wait for a slot, and a
// request beyond that is rejected immediately — backpressure the caller
// can see instead of unbounded concurrent compilations.
type pool struct {
	slots  chan struct{} // one token per running job
	limit  int           // slots plus queue depth: the admission bound
	queued atomic.Int64

	mu       sync.Mutex
	admitted int // guarded by mu
	closed   bool
	wg       sync.WaitGroup
}

func newPool(workers, depth int) *pool {
	return &pool{slots: make(chan struct{}, workers), limit: workers + depth}
}

// Do runs f on the calling goroutine once a slot is free. It fails fast
// with errBusy when Workers+QueueDepth requests are already admitted and
// errClosed when the pool is draining. A ctx that ends while the request
// waits for a slot returns ctx.Err() and f never runs; once f starts it
// runs to completion.
func (p *pool) Do(ctx context.Context, f func()) error {
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		return errClosed
	case p.admitted == p.limit:
		p.mu.Unlock()
		return errBusy
	}
	p.admitted++
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.release()

	p.queued.Add(1)
	select {
	case p.slots <- struct{}{}:
		p.queued.Add(-1)
	case <-ctx.Done():
		p.queued.Add(-1)
		return ctx.Err()
	}
	defer func() { <-p.slots }()
	f()
	return nil
}

func (p *pool) release() {
	p.mu.Lock()
	p.admitted--
	p.mu.Unlock()
	p.wg.Done()
}

// QueueDepth returns the number of admitted requests waiting for a slot.
func (p *pool) QueueDepth() int { return int(p.queued.Load()) }

// Inflight returns the number of jobs currently executing.
func (p *pool) Inflight() int { return len(p.slots) }

// Close drains the pool gracefully: new submissions fail with errClosed,
// queued and in-flight jobs run to completion, and Close returns once
// every admitted request has finished. Idempotent.
func (p *pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}
