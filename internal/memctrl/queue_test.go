package memctrl

import (
	"math/rand"
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
			q.pushBack(o)
			oracle = append(oracle, o)
		case r == 2:
			o := op{id: uint64(step), kind: opWrite}
			q.pushFront(o)
			oracle = append([]op{o}, oracle...)
		default:
			if len(oracle) == 0 {
				continue
			}
			got := q.popFront()
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
		if got := q.popFront(); got != oracle[i] {
			t.Fatalf("drain %d: %+v want %+v", i, got, oracle[i])
		}
	}
}

// TestNextEventCacheConsistent checks the cached event minimum against a
// brute-force scan of the deadline arrays after every call of a busy
// random workload. Reads come in every sensing mode. A second pass runs
// one bank without scrubbing, at a pace its write queue keeps up with: a
// cancelled write then holds the minimum, and a read slower than its
// remaining time must not leave the paused write's deadline cached.
func TestNextEventCacheConsistent(t *testing.T) {
	for _, tc := range []struct {
		banks   int
		scrub   time.Duration
		maxStep int // ps one AdvanceTo call may move time
	}{{8, 50 * time.Microsecond, 200_000}, {1, 0, 2_000_000}} {
		cfg := DefaultConfig()
		cfg.Banks, cfg.ScrubInterval = tc.banks, tc.scrub
		cfg.TotalLines = 1 << 10
		checkNextEventCache(t, cfg, tc.maxStep)
	}
}

func checkNextEventCache(t *testing.T, cfg Config, maxStep int) {
	t.Helper()
	acct, err := energy.NewAccounting(energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(cfg, acct, nopHook{})
	if err != nil {
		t.Fatal(err)
	}
	brute := func() (int64, bool) {
		best, found := int64(0), false
		for i := range c.banks {
			for _, at := range [...]int64{c.busyUntil[i], c.scrubAt[i]} {
				if at != never && (!found || at < best) {
					best, found = at, true
				}
			}
		}
		return best, found
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
		wantAt, wantOK := brute()
		if gotAt != wantAt || gotOK != wantOK {
			t.Fatalf("%d banks, step %d: NextEventAt = %d,%v brute force %d,%v",
				cfg.Banks, step, gotAt, gotOK, wantAt, wantOK)
		}
	}
}

type nopHook struct{}

func (nopHook) OnScrub(now int64, line uint64) ScrubAction { return ScrubAction{} }
