package main

import (
	"testing"
	"time"
)

// A client that stalls delays every request queued behind it; timing from
// the due time charges that wait to those requests, where timing from
// the send would hide it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n       = 40
		spacing = 2 * time.Millisecond
		stall   = 30 * time.Millisecond
		stallAt = 10
	)
	shots := openLoop(uniformDues(n, float64(time.Second/spacing)), 1, func(_, i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	})
	next := shots[stallAt+1]
	if next.Late() < stall-spacing-time.Millisecond {
		t.Fatalf("request after the stall was sent %v late, want about %v", next.Late(), stall-spacing)
	}
	if next.Latency() < next.Late() {
		t.Fatalf("latency %v excludes the %v spent waiting behind the stall", next.Latency(), next.Late())
	}
	if service := next.Done - next.Sent; service > time.Millisecond {
		t.Fatalf("the delayed request itself took %v; the test needs an instant one", service)
	}
	// The backlog drains: the last requests are on time again.
	if last := shots[n-1]; last.Late() > 5*time.Millisecond {
		t.Errorf("last request still %v late", last.Late())
	}
	p99, grew := lateness(shots)
	if p99 < float64(stall-spacing)/float64(time.Millisecond)/2 {
		t.Errorf("late p99 %.3f ms does not show the stall", p99)
	}
	if grew {
		t.Errorf("a single drained stall was reported as a growing backlog")
	}
}

func TestLatenessFlagsGrowingBacklog(t *testing.T) {
	shots := make([]shot, 100)
	for i := range shots {
		due := time.Duration(i) * time.Millisecond
		late := time.Duration(i) * 500 * time.Microsecond // falls further behind
		shots[i] = shot{Due: due, Sent: due + late, Done: due + late + time.Millisecond}
	}
	if _, grew := lateness(shots); !grew {
		t.Fatal("steadily growing lateness was not reported as a growing backlog")
	}
}

func TestClosedLoopStopsAtLimit(t *testing.T) {
	shots := closedLoop(2, 25, func(_, _ int) {})
	if len(shots) != 25 {
		t.Fatalf("closed loop issued %d requests, want 25", len(shots))
	}
	for i, s := range shots {
		if s.Done < s.Sent {
			t.Fatalf("request %d finished before it was sent", i)
		}
	}
}
