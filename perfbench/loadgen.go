package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one request of a load run. Times are offsets from the run's
// start: when the request was due, when a client actually sent it, and
// when its last byte arrived.
type shot struct {
	Due, Sent, Done time.Duration
}

// Latency is measured from the due time, so a stall that delays later
// sends is charged to the requests it delayed.
func (s shot) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator sent the request.
func (s shot) Late() time.Duration { return s.Sent - s.Due }

// openLoop sends request i at dues[i] after the start, from at most
// workers client goroutines, whatever earlier requests are doing. A
// client that is busy past a due time sends as soon as it is free; the
// lateness stays in that request's latency. do must not retain the
// worker index beyond the call: each worker owns its own connection.
func openLoop(dues []time.Duration, workers int, do func(worker, i int)) []shot {
	shots := make([]shot, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				waitUntil(start, dues[i])
				sent := time.Since(start)
				do(w, i)
				shots[i] = shot{Due: dues[i], Sent: sent, Done: time.Since(start)}
			}
		}(w)
	}
	wg.Wait()
	return shots
}

// spinWindow is how long before a due time a client stops sleeping and
// polls the clock instead. An idle Go process sleeps in the poller with a
// millisecond timeout, which lands sends up to a millisecond late; polling
// the last stretch, yielding to the server's goroutines, lands them within
// microseconds unless the host itself preempts the client.
const spinWindow = time.Millisecond

func waitUntil(start time.Time, due time.Duration) {
	if wait := due - time.Since(start); wait > spinWindow {
		time.Sleep(wait - spinWindow)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

// closedLoop keeps workers clients busy: each sends its next request as
// soon as the previous one completes, until n requests have been issued.
// It returns one shot per request, due when sent.
func closedLoop(workers, n int, do func(worker, i int)) []shot {
	shots := make([]shot, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sent := time.Since(start)
				do(w, i)
				shots[i] = shot{Due: sent, Sent: sent, Done: time.Since(start)}
			}
		}(w)
	}
	wg.Wait()
	return shots
}

// uniformDues spaces n requests evenly at rate per second.
func uniformDues(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	step := float64(time.Second) / rate
	for i := range dues {
		dues[i] = time.Duration(float64(i) * step)
	}
	return dues
}

// lateness summarizes how far the generator fell behind its schedule:
// the p99 of send lateness in ms, and whether the backlog grew — the
// last quarter of the schedule running more than backlogSlack later
// (at p90) than the first quarter did.
func lateness(shots []shot) (p99MS float64, grew bool) {
	if len(shots) == 0 {
		return 0, false
	}
	late := make([]time.Duration, len(shots))
	for i, s := range shots {
		late[i] = s.Late()
	}
	p99MS = summarizePct(late, 99)
	q := len(shots) / 4
	if q == 0 {
		return p99MS, false
	}
	first := summarizePct(late[:q], 90)
	last := summarizePct(late[len(late)-q:], 90)
	return p99MS, last-first > backlogSlack.Seconds()*1000
}

// backlogSlack is the lateness growth over a run that counts as a
// growing backlog: several times the spacing of any rate the benchmark
// offers, far above timer jitter.
const backlogSlack = 10 * time.Millisecond

func summarizePct(d []time.Duration, p float64) float64 {
	ms := make([]float64, len(d))
	for i, v := range d {
		ms[i] = float64(v) / float64(time.Millisecond)
	}
	return percentile(sortedCopy(ms), p)
}
