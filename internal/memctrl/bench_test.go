package memctrl_test

import (
	"math/rand"
	"testing"
	"time"

	"readduo/internal/energy"
	"readduo/internal/memctrl"
	"readduo/internal/sense"
)

// benchScrub scans in M mode on every other visit and rewrites on every
// eighth, so scrub scans of both modes and scrub rewrites reach the banks.
type benchScrub struct{ visits int }

func (h *benchScrub) OnScrub(now int64, line uint64) memctrl.ScrubAction {
	h.visits++
	return memctrl.ScrubAction{
		ReadLatency:  150 * time.Nanosecond,
		Voltage:      h.visits%2 == 0,
		Rewrite:      h.visits%8 == 0,
		CellsWritten: 296,
	}
}

const (
	stepReadR = iota
	stepReadM
	stepWrite
	stepAdvance
)

type benchStep struct {
	kind int
	line uint64
	gap  int64 // stepAdvance: picoseconds to move forward
}

// benchNext keeps the NextEventAt probe's result live.
var benchNext int64

// BenchmarkController drives one controller through a fixed, seeded mix
// of calls, the way the simulator's event loop does: 30% R-reads, 20%
// M-reads, 20% writes and 30% advances (a NextEventAt probe, then
// AdvanceTo 0–600 ns ahead), with the scrub walker visiting each bank's
// lines every 4 µs. The banks are about 57% busy, so the queues stay
// bounded and, once warm, an op allocates nothing.
func BenchmarkController(b *testing.B) {
	cfg := memctrl.DefaultConfig()
	cfg.TotalLines = 1 << 16 // 8192 lines per bank
	cfg.ScrubInterval = 8192 * 4 * time.Microsecond
	acct, err := energy.NewAccounting(energy.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := memctrl.NewController(cfg, acct, &benchScrub{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	steps := make([]benchStep, 4096)
	for i := range steps {
		s := &steps[i]
		switch r := rng.Intn(10); {
		case r < 3:
			s.kind = stepReadR
		case r < 5:
			s.kind = stepReadM
		case r < 7:
			s.kind = stepWrite
		default:
			s.kind = stepAdvance
			s.gap = rng.Int63n(memctrl.PS(600 * time.Nanosecond))
		}
		s.line = uint64(rng.Int63n(int64(cfg.TotalLines)))
	}
	var (
		now     int64
		id      uint64
		scratch []memctrl.Completion
	)
	run := func(i int) {
		s := &steps[i&(len(steps)-1)]
		switch s.kind {
		case stepReadR, stepReadM:
			mode := sense.ModeR
			if s.kind == stepReadM {
				mode = sense.ModeM
			}
			id++
			if err := ctrl.EnqueueRead(now, id, s.line, mode); err != nil {
				b.Fatal(err)
			}
		case stepWrite:
			ctrl.EnqueueWrite(now, s.line, 296)
		case stepAdvance:
			benchNext, _ = ctrl.NextEventAt()
			now += s.gap
			scratch = ctrl.AdvanceTo(now, scratch)
		}
	}
	// Warm the queues' ring buffers and the completion scratch.
	for i := 0; i < 4*len(steps); i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}
