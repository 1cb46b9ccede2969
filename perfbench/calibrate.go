package main

import (
	"math"
	"runtime"
	"time"
)

// The host the benchmark was defined on ran the same code up to 1.5x
// faster or slower from one minute to the next: other tenants contend
// for its caches, memory and floating-point units, while plain integer
// code keeps its speed. Every timed figure is therefore scaled by a
// calibration taken beside it: two fixed loops, in this file and run by
// no repository code, one chasing pointers through memory and one doing
// floating-point math, each timed against its reference time on that
// host. A figure is reported as it would read at the reference speed. A
// change to the code under test moves the figure as before; a change in
// the host's speed moves the loops too and mostly cancels out.

// Reference times of the calibration loops, about their medians on the
// host the bounds were set on.
const (
	chaseRefMS = 46.6
	floatRefMS = 33.1
)

// chaseRing is the pointer-chasing loop's ring: 4 MiB, one random cycle.
var chaseRing = func() []uint32 {
	const size = 1 << 20
	perm := make([]uint32, size)
	for i := range perm {
		perm[i] = uint32(i)
	}
	s := uint64(88172645463325252) // xorshift64
	for i := size - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	ring := make([]uint32, size)
	for i := range perm {
		ring[perm[i]] = perm[(i+1)%size]
	}
	return ring
}()

var calSink float64

// calibrate times both loops and returns how much slower than the
// reference the host ran them, as the mean of their time ratios. It
// first finishes a garbage collection, so that no collection the code
// under test left running shares the process's one P with the loops;
// callers run it only while the workload is idle.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	idx := uint32(0)
	for range chaseRing {
		idx = chaseRing[idx]
	}
	chased := time.Now()
	s := float64(idx)
	for k := 1; k < 1_000_000; k++ {
		v := float64(k) * 1e-6
		s += math.Exp(-v) * math.Log1p(v) / (1 + math.Erf(v))
	}
	calSink += s
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return (ms(chased.Sub(start))/chaseRefMS + ms(time.Since(chased))/floatRefMS) / 2
}

// timeCalibrated runs f between two calibrations and returns its time
// as measured and scaled by their mean.
func timeCalibrated(f func() error) (raw, scaled float64, err error) {
	before := calibrate()
	start := time.Now()
	err = f()
	raw = time.Since(start).Seconds()
	return raw, calibratedTime(raw, (before+calibrate())/2), err
}

// calibratedRate scales a rate measured while the host ran slow times
// slower than the reference.
func calibratedRate(rate, slow float64) float64 { return rate * slow }

// calibratedTime scales a duration the same way.
func calibratedTime(sec, slow float64) float64 { return sec / slow }
