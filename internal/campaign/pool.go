package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSaturated is returned by Pool.TrySubmit when the queue is full — the
// backpressure signal a serving layer converts into 429 + Retry-After.
var ErrSaturated = errors.New("campaign: worker pool saturated")

// ErrPoolClosed is returned by submissions racing Close.
var ErrPoolClosed = errors.New("campaign: worker pool closed")

// Pool is the bounded worker pool behind both campaign.Run and the query
// service (internal/server): a fixed worker count draining a bounded task
// queue. Two admission disciplines are offered — the blocking Submit the
// batch engine uses (the producer *is* the backpressure) and the
// non-blocking TrySubmit a request handler uses (a full queue must fail
// fast, not stall the client).
type Pool struct {
	tasks chan poolTask

	// queueWait, when non-nil, observes each task's enqueue -> pickup
	// latency. Called on worker goroutines; must be safe for concurrent
	// use (telemetry histograms are).
	queueWait func(d time.Duration)

	wg    sync.WaitGroup
	depth atomic.Int64

	// admitMu serializes admissions against Close: senders hold the read
	// side, Close takes the write side before closing the task channel,
	// so no submission can race a send onto a closed channel.
	admitMu sync.RWMutex
	closed  bool
}

type poolTask struct {
	fn       func(worker int)
	enqueued time.Time
}

// NewPool starts `workers` goroutines over a queue holding up to `queue`
// pending tasks (0 = unbuffered: an admission completes only when a worker
// picks the task up). queueWait may be nil.
func NewPool(workers, queue int, queueWait func(time.Duration)) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{
		tasks:     make(chan poolTask, queue),
		queueWait: queueWait,
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer p.wg.Done()
			for task := range p.tasks {
				if p.queueWait != nil {
					p.queueWait(time.Since(task.enqueued))
				}
				task.fn(worker)
				p.depth.Add(-1)
			}
		}(w)
	}
	return p
}

// Submit enqueues fn, blocking until a queue slot (or, for an unbuffered
// pool, a worker) is available or ctx is cancelled. fn receives the index
// of the worker executing it.
func (p *Pool) Submit(ctx context.Context, fn func(worker int)) error {
	p.admitMu.RLock()
	defer p.admitMu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	// select picks among ready cases at random, so with a worker idle a
	// submission whose ctx is already done would still run half the time.
	if err := ctx.Err(); err != nil {
		return err
	}
	p.depth.Add(1)
	select {
	case p.tasks <- poolTask{fn: fn, enqueued: time.Now()}:
		return nil
	case <-ctx.Done():
		p.depth.Add(-1)
		return ctx.Err()
	}
}

// TrySubmit enqueues fn without blocking; a full queue returns
// ErrSaturated.
func (p *Pool) TrySubmit(fn func(worker int)) error {
	p.admitMu.RLock()
	defer p.admitMu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.depth.Add(1)
	select {
	case p.tasks <- poolTask{fn: fn, enqueued: time.Now()}:
		return nil
	default:
		p.depth.Add(-1)
		return ErrSaturated
	}
}

// Depth returns the number of tasks admitted but not yet finished
// (queued + executing) — the saturation signal Retry-After hints derive
// from.
func (p *Pool) Depth() int {
	return int(p.depth.Load())
}

// Close stops admissions, drains every queued task, and waits for the
// workers to exit. Safe to call more than once. Blocked Submits finish
// first: the workers keep draining, so their sends complete before Close
// acquires the admission lock.
func (p *Pool) Close() {
	p.admitMu.Lock()
	if p.closed {
		p.admitMu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.admitMu.Unlock()
	p.wg.Wait()
}
