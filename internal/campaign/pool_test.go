package campaign

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// occupyPool parks the single worker of a 1-worker pool inside a task and
// returns the release function. Submit (not TrySubmit) is used so the
// call only returns once the worker has actually picked the task up —
// deterministic even immediately after NewPool, before the worker
// goroutines have parked on the channel.
func occupyPool(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	running := make(chan struct{})
	err := p.Submit(context.Background(), func(int) {
		close(running)
		<-gate
	})
	if err != nil {
		t.Fatalf("occupy: %v", err)
	}
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the occupying task")
	}
	return func() { close(gate) }
}

// TestPoolTrySubmitBackpressure drives the non-blocking admission path
// the serving layer depends on: a full queue fails fast with
// ErrSaturated, Depth reports queued+executing, and capacity freed by a
// finishing task is immediately admissible again.
func TestPoolTrySubmitBackpressure(t *testing.T) {
	p := NewPool(1, 1, nil)
	defer p.Close()
	release := occupyPool(t, p)

	// Worker busy; the single queue slot is free.
	queued := make(chan struct{})
	if err := p.TrySubmit(func(int) { close(queued) }); err != nil {
		t.Fatalf("TrySubmit into free slot: %v", err)
	}
	if got := p.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2 (1 executing + 1 queued)", got)
	}
	if err := p.TrySubmit(func(int) {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySubmit on full queue = %v, want ErrSaturated", err)
	}
	// The rejected admission must not leak depth.
	if got := p.Depth(); got != 2 {
		t.Errorf("Depth after rejection = %d, want 2", got)
	}

	release()
	select {
	case <-queued:
	case <-time.After(5 * time.Second):
		t.Fatal("queued task never ran after release")
	}
	waitDepth(t, p, 0)
	if err := p.TrySubmit(func(int) {}); err != nil {
		t.Errorf("TrySubmit after drain: %v", err)
	}
}

// TestPoolSubmitHonorsContext pins the blocking path's escape hatch: a
// Submit stalled on a full queue returns the context error and rolls its
// depth accounting back.
func TestPoolSubmitHonorsContext(t *testing.T) {
	p := NewPool(1, 0, nil)
	defer p.Close()
	release := occupyPool(t, p)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Submit(ctx, func(int) {}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit on full unbuffered pool = %v, want DeadlineExceeded", err)
	}
	if got := p.Depth(); got != 1 {
		t.Errorf("Depth after cancelled Submit = %d, want 1 (the occupier)", got)
	}
}

// TestPoolSubmitCancelledNeverRuns: with a worker idle and ready to
// receive, a Submit whose context is already cancelled must refuse every
// time, so a campaign cancelled before it starts runs no job.
func TestPoolSubmitCancelledNeverRuns(t *testing.T) {
	p := NewPool(1, 0, nil)
	defer p.Close()
	warm := make(chan struct{})
	if err := p.Submit(context.Background(), func(int) { close(warm) }); err != nil {
		t.Fatal(err)
	}
	<-warm
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		if err := p.Submit(ctx, func(int) {}); !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit %d with a cancelled context = %v, want context.Canceled", i, err)
		}
	}
}

// TestPoolCloseDrainsAndRejects: Close executes everything already
// admitted, then both admission disciplines refuse with ErrPoolClosed,
// and a second Close is a no-op.
func TestPoolCloseDrainsAndRejects(t *testing.T) {
	p := NewPool(2, 8, nil)
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if err := p.Submit(context.Background(), func(int) {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	p.Close()
	if got := ran.Load(); got != 8 {
		t.Fatalf("Close drained %d tasks, want 8", got)
	}
	if err := p.Submit(context.Background(), func(int) {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	if err := p.TrySubmit(func(int) {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("TrySubmit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // must not panic or deadlock
}

// TestPoolQueueWaitObserved: the enqueue->pickup latency hook fires once
// per executed task.
func TestPoolQueueWaitObserved(t *testing.T) {
	var observed atomic.Int64
	p := NewPool(1, 4, func(time.Duration) { observed.Add(1) })
	for i := 0; i < 5; i++ {
		if err := p.Submit(context.Background(), func(int) {}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	if got := observed.Load(); got != 5 {
		t.Errorf("queueWait observed %d tasks, want 5", got)
	}
}

func waitDepth(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Depth() != want {
		if time.Now().After(deadline) {
			t.Fatalf("Depth stuck at %d, want %d", p.Depth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
