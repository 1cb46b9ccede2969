package memctrl

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"readduo/internal/energy"
	"readduo/internal/sense"
)

// TestOpQueueAgainstSliceOracle drives the ring buffer and a plain slice
// with the same operation stream — pushBack, pushFront (cancellation),
// popFront — across many grow boundaries.
func TestOpQueueAgainstSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q opQueue
	var oracle []op
	for step := 0; step < 100_000; step++ {
		switch r := rng.Intn(5); {
		case r < 2:
			o := op{id: uint64(step), latencyPS: int64(step)}
			*q.pushBack() = o
			oracle = append(oracle, o)
		case r == 2:
			o := op{id: uint64(step), kind: opWrite}
			*q.pushFront() = o
			oracle = append([]op{o}, oracle...)
		default:
			if len(oracle) == 0 {
				continue
			}
			got := *q.popFront()
			want := oracle[0]
			oracle = oracle[1:]
			if got != want {
				t.Fatalf("step %d: popFront = %+v want %+v", step, got, want)
			}
		}
		if q.len() != len(oracle) {
			t.Fatalf("step %d: len = %d oracle %d", step, q.len(), len(oracle))
		}
	}
	// Drain and compare the tail.
	for i := 0; q.len() > 0; i++ {
		if got := *q.popFront(); got != oracle[i] {
			t.Fatalf("drain %d: %+v want %+v", i, got, oracle[i])
		}
	}
}

// TestNextEventCacheConsistent checks the cached event minimum, and the
// bank and kind of the event cached as due then, against a brute-force
// scan of the deadline arrays after every call of a busy random workload.
// Reads come in every sensing mode. A second pass runs
// one bank without scrubbing, at a pace its write queue keeps up with: a
// cancelled write then holds the minimum, and a read slower than its
// remaining time must not leave the paused write's deadline cached. A
// third pass scrubs slowly enough that completions often hold the
// minimum, so dispatches lower it in place, ties between banks
// included, and every 16th step times a read to an idle bank to
// complete exactly at the next scrub arrival.
func TestNextEventCacheConsistent(t *testing.T) {
	for _, tc := range []struct {
		banks    int
		scrub    time.Duration
		maxStep  int // ps one AdvanceTo call may move time
		tieEvery int // steps between reads tied with a scrub arrival, 0 for none
	}{{8, 50 * time.Microsecond, 200_000, 0}, {1, 0, 2_000_000, 0}, {8, time.Millisecond, 200_000, 16}} {
		cfg := DefaultConfig()
		cfg.Banks, cfg.ScrubInterval = tc.banks, tc.scrub
		cfg.TotalLines = 1 << 10
		checkNextEventCache(t, cfg, tc.maxStep, tc.tieEvery)
	}
}

func checkNextEventCache(t *testing.T, cfg Config, maxStep, tieEvery int) {
	t.Helper()
	acct, err := energy.NewAccounting(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(cfg, acct, nopHook{})
	if err != nil {
		t.Fatal(err)
	}
	// brute picks the due event: the earliest deadline; at one time a
	// completion before a scrub arrival, completions from the highest bank
	// down, scrub arrivals from the lowest bank up.
	brute := func() (at int64, bank int, scrub, found bool) {
		for i := range c.banks {
			if d := c.busyUntil[i]; d != never && (!found || d < at || d == at && (scrub || i > bank)) {
				at, bank, scrub, found = d, i, false, true
			}
			if d := c.scrubAt[i]; d != never && (!found || d < at) {
				at, bank, scrub, found = d, i, true, true
			}
		}
		return at, bank, scrub, found
	}
	// dispatch runs after every change to a bank's queues or in-flight
	// op, so no bank is ever left idle with work it could start.
	checkNoIdleWork := func(step int) {
		for i := range c.banks {
			b := &c.banks[i]
			if c.busyUntil[i] == never && b.readQ.len()+b.writeQ.len()+b.scrubPending.len() > 0 {
				t.Fatalf("%d banks, step %d: bank %d idle with %d reads, %d writes, %d scrubs queued",
					cfg.Banks, step, i, b.readQ.len(), b.writeQ.len(), b.scrubPending.len())
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	now := int64(0)
	var scratch []Completion
	for step := 0; step < 20_000; step++ {
		if tieEvery > 0 && step%tieEvery == 0 {
			now, scratch = readTiedWithScrub(t, c, now, scratch)
			continue
		}
		line := uint64(rng.Intn(1 << 10))
		switch rng.Intn(3) {
		case 0:
			mode := [...]sense.Mode{sense.ModeR, sense.ModeM, sense.ModeRM}[rng.Intn(3)]
			if err := c.EnqueueRead(now, uint64(step), line, mode); err != nil {
				t.Fatal(err)
			}
		case 1:
			c.EnqueueWrite(now, line, 296)
		default:
			now += int64(rng.Intn(maxStep))
			scratch = c.AdvanceTo(now, scratch)
		}
		checkNoIdleWork(step)
		gotAt, gotOK := c.NextEventAt()
		wantAt, wantBank, wantScrub, wantOK := brute()
		if gotAt != wantAt || gotOK != wantOK {
			t.Fatalf("%d banks, step %d: NextEventAt = %d,%v brute force %d,%v",
				cfg.Banks, step, gotAt, gotOK, wantAt, wantOK)
		}
		if wantOK && (c.minBank != wantBank || c.minScrub != wantScrub) {
			t.Fatalf("%d banks, step %d: cached event bank %d (scrub %v), brute force bank %d (scrub %v)",
				cfg.Banks, step, c.minBank, c.minScrub, wantBank, wantScrub)
		}
	}
}

// readTiedWithScrub advances c to the time a read sensed in R mode
// must start to complete at the next scrub arrival, and starts one on the
// lowest idle bank. When that time has passed or no bank is idle it does
// nothing.
func readTiedWithScrub(t *testing.T, c *Controller, now int64, scratch []Completion) (int64, []Completion) {
	t.Helper()
	start := slices.Min(c.scrubAt) - PS(c.cfg.Timing.Latency(sense.ModeR))
	i := slices.Index(c.busyUntil, never)
	if start < now || i < 0 {
		return now, scratch
	}
	scratch = c.AdvanceTo(start, scratch)
	if i = slices.Index(c.busyUntil, never); i >= 0 {
		if err := c.EnqueueRead(start, uint64(i), uint64(i), sense.ModeR); err != nil {
			t.Fatal(err)
		}
	}
	return start, scratch
}

type nopHook struct{}

func (nopHook) OnScrub(now int64, line uint64) ScrubAction { return ScrubAction{} }
