package main

import (
	"testing"
	"time"

	"readduo/internal/cpu"
	"readduo/internal/memctrl"
	"readduo/internal/sense"
	"readduo/internal/trace"
)

func smallReplayJob(t *testing.T) replayJob {
	t.Helper()
	bench, ok := trace.ByName("lbm")
	if !ok {
		t.Fatal("lbm profile missing")
	}
	const records = 3000
	g, err := trace.NewGenerator(bench, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]trace.Record, 4)
	for core := range recs {
		for k := 0; k < records; k++ {
			r, err := g.Next(core)
			if err != nil {
				t.Fatal(err)
			}
			recs[core] = append(recs[core], r)
		}
	}
	j := replayJob{recs: recs, cpu: cpu.DefaultConfig(), mem: memctrl.DefaultConfig(), seed: 7, rewrite: 0.25}
	// Budget well inside the recorded streams; a short scrub interval so
	// scrub visits interleave with demand traffic.
	j.cpu.InstrBudget = 50_000
	j.mem.ScrubInterval = 50 * time.Millisecond
	j.mem.TotalLines = 1 << 14
	j.scan = memctrl.ScrubAction{ReadLatency: j.mem.Timing.Latency(sense.ModeR), CellsWritten: j.mem.CellsPerLine}
	return j
}

// Replaying the recorded controller calls on a fresh controller must
// reproduce every answer the controller gave during the combined run:
// completions, write acceptance, next-event times and scrub visits.
func TestControllerReplayReproducesRecordedCompletions(t *testing.T) {
	j := smallReplayJob(t)
	log := &callLog{}
	if _, err := runCombined(j, log); err != nil {
		t.Fatal(err)
	}
	var reads, writes, refused int
	for _, c := range log.calls {
		switch c.kind {
		case callRead:
			reads++
		case callWrite:
			writes++
			if !c.ok {
				refused++
			}
		}
	}
	if reads == 0 || writes == 0 || len(log.comps) == 0 || len(log.scrubs) == 0 {
		t.Fatalf("replay exercised too little: %d reads, %d writes, %d completions, %d scrub visits",
			reads, writes, len(log.comps), len(log.scrubs))
	}
	// Cores stop at their budget with up to MLP reads still in flight.
	if inflight := reads - len(log.comps); inflight < 0 || inflight > j.cpu.Cores*j.cpu.MLP {
		t.Fatalf("%d completions for %d reads", len(log.comps), reads)
	}
	if mism, err := replayController(j.mem, log); err != nil || mism != 0 {
		t.Fatalf("replay: %d mismatches, err %v", mism, err)
	}

	// A perturbed record must be caught: move one read to another bank.
	bad := &callLog{calls: append([]call(nil), log.calls...), comps: log.comps, scrubs: log.scrubs}
	for i, c := range bad.calls {
		if c.kind == callRead {
			bad.calls[i].line++
			break
		}
	}
	if mism, err := replayController(j.mem, bad); err != nil || mism == 0 {
		t.Fatalf("perturbed replay: %d mismatches, err %v; want a mismatch", mism, err)
	}
}

func TestReplaySplitAccountsBothLayers(t *testing.T) {
	r, err := replaySplit(smallReplayJob(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.mismatches != 0 || r.memCalls == 0 || r.cpuCalls == 0 || r.memctrl <= 0 || r.combined <= 0 {
		t.Fatalf("split %+v", r)
	}
}
