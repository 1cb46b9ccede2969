package readduo_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"readduo"
)

// The facade tests exercise the library the way a downstream user would:
// only through the public API.

func TestPublicPolicyPlanning(t *testing.T) {
	rAn, err := readduo.NewReliabilityAnalyzer(readduo.RMetric())
	if err != nil {
		t.Fatalf("NewReliabilityAnalyzer: %v", err)
	}
	rep, err := rAn.Check(readduo.ScrubPolicy{E: 8, S: 8, W: 0})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !rep.Meets {
		t.Error("paper's R-sensing baseline rejected")
	}
	mAn, err := readduo.NewReliabilityAnalyzer(readduo.MMetric())
	if err != nil {
		t.Fatal(err)
	}
	rep, err = mAn.Check(readduo.ScrubPolicy{E: 8, S: 640, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Meets {
		t.Error("ReadDuo's M-scrub policy rejected")
	}
	if readduo.DRAMTargetLER(640) <= 0 {
		t.Error("DRAM target not positive")
	}
}

func TestPublicCodecRoundTrip(t *testing.T) {
	code, err := readduo.NewLineCode()
	if err != nil {
		t.Fatalf("NewLineCode: %v", err)
	}
	data := make([]byte, code.DataBytes())
	rand.New(rand.NewSource(1)).Read(data)
	parity, err := code.Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Corrupt three bits and repair.
	orig := append([]byte(nil), data...)
	for _, pos := range []int{5, 100, 500} {
		data[pos/8] ^= 1 << (pos % 8)
	}
	res, err := code.Decode(data, parity)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if res.Status != readduo.DecodeCorrected || !bytes.Equal(data, orig) {
		t.Errorf("decode status %v, repaired=%v", res.Status, bytes.Equal(data, orig))
	}
}

func TestPublicLineLifecycle(t *testing.T) {
	line, err := readduo.NewMLCLine()
	if err != nil {
		t.Fatalf("NewMLCLine: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, line.DataBytes())
	rng.Read(payload)
	if err := line.Write(payload, 0, rng); err != nil {
		t.Fatalf("Write: %v", err)
	}
	res, err := line.Read(readduo.LineReadM, 640)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Error("payload lost through drift + M-read")
	}
}

func TestPublicTrackingTrio(t *testing.T) {
	tr, err := readduo.NewTracker(4)
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	if err := tr.RecordWrite(1); err != nil {
		t.Fatal(err)
	}
	ok, err := tr.AllowRSense(2)
	if err != nil || !ok {
		t.Errorf("AllowRSense = %v, %v", ok, err)
	}
	conv, err := readduo.NewConverter()
	if err != nil {
		t.Fatal(err)
	}
	if conv.T() != 50 {
		t.Errorf("converter T = %d", conv.T())
	}
	pol, err := readduo.NewSDWPolicy(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := pol.Decide(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mode != readduo.WriteDifferential {
		t.Errorf("SDW decision = %v, want differential within s", mode)
	}
}

func TestPublicSimulation(t *testing.T) {
	cfg, err := readduo.SimConfigFor("gcc")
	if err != nil {
		t.Fatalf("SimConfigFor: %v", err)
	}
	cfg.CPU.InstrBudget = 30_000
	res, err := readduo.Simulate(cfg, readduo.SchemeLWT(4, true))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.ExecTime <= 0 || res.Scheme != "LWT-4" {
		t.Errorf("result %+v", res)
	}
	if _, err := readduo.SimConfigFor("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPublicSchemeComposition(t *testing.T) {
	s, err := readduo.ParseScheme("lwt:k=8")
	if err != nil || s.Name() != "LWT-8" {
		t.Fatalf("ParseScheme = %v, %v", s.Name(), err)
	}
	list, err := readduo.ParseSchemes("Ideal,LWT-8,Select-4:2")
	if err != nil || len(list) != 3 {
		t.Fatalf("ParseSchemes = %d schemes, %v", len(list), err)
	}
	if len(readduo.SchemeGrammars()) == 0 {
		t.Error("no scheme grammars registered")
	}
	if got := len(readduo.AllSchemes()); got != 7 {
		t.Errorf("AllSchemes = %d", got)
	}
	if got := len(readduo.PriorSchemes()) + len(readduo.ReadDuoSchemes()); got != 8 {
		t.Errorf("prior+readduo = %d schemes", got)
	}

	// A design point the paper never built: tracked sensing over Select
	// writes, scrubbed on the M metric with Hybrid's W=0 rewrites.
	custom := readduo.ComposeScheme("lwt8-over-select", readduo.SchemeDesign{
		Sense:   readduo.SchemeSenseTracked,
		Scrub:   readduo.SchemeScrub{Interval: 640 * time.Second, Metric: readduo.MetricM, W: 0},
		Write:   readduo.SchemeWriteSelect,
		K:       8,
		S:       4,
		Convert: true,
	})
	if err := custom.Validate(); err != nil {
		t.Fatalf("custom scheme invalid: %v", err)
	}
	cfg, err := readduo.SimConfigFor("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.CPU.InstrBudget = 30_000
	res, err := readduo.Simulate(cfg, custom)
	if err != nil {
		t.Fatalf("Simulate(custom): %v", err)
	}
	if res.Scheme != "lwt8-over-select" || res.ExecTime <= 0 {
		t.Errorf("custom result %+v", res)
	}
}

func TestPublicSuiteAndMetrics(t *testing.T) {
	if got := len(readduo.Benchmarks()); got != 14 {
		t.Errorf("suite size %d", got)
	}
	if _, ok := readduo.BenchmarkByName("mcf"); !ok {
		t.Error("mcf missing")
	}
	edap, err := readduo.EDAP(2, 3, 4)
	if err != nil || edap != 24 {
		t.Errorf("EDAP = %v, %v", edap, err)
	}
	imp, err := readduo.Improvement(100, 63)
	if err != nil || imp != 0.37 {
		t.Errorf("Improvement = %v, %v", imp, err)
	}
	mlc, err := readduo.MLCLineFootprint(80, 6)
	if err != nil || mlc.EquivalentCells() != 302 {
		t.Errorf("MLC footprint = %v, %v", mlc.EquivalentCells(), err)
	}
	if tlc := readduo.TLCLineFootprint(); tlc.EquivalentCells() != 384 {
		t.Errorf("TLC footprint = %v", tlc.EquivalentCells())
	}
	ovh, err := readduo.HybridSenseAmpOverhead()
	if err != nil || ovh < 0.002 || ovh > 0.004 {
		t.Errorf("sense amp overhead = %v, %v", ovh, err)
	}
	rel, err := readduo.RelativeLifetime(1000, 700)
	if err != nil || rel <= 1.4 || rel >= 1.5 {
		t.Errorf("RelativeLifetime = %v, %v", rel, err)
	}
	lm, err := readduo.NewLifetimeModel(1e8, 1e9)
	if err != nil || lm == nil {
		t.Errorf("NewLifetimeModel: %v", err)
	}
}

func TestPublicPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, err := readduo.NewMLCPopulation(2, 1000, rng)
	if err != nil {
		t.Fatalf("NewMLCPopulation: %v", err)
	}
	if pop.Size() != 1000 {
		t.Errorf("Size = %d", pop.Size())
	}
	if h := pop.Histogram(0, 4.4, 5.7, 10); len(h) != 10 {
		t.Errorf("histogram bins = %d", len(h))
	}
}

func TestVersion(t *testing.T) {
	if readduo.Version == "" {
		t.Error("empty version")
	}
}

func TestPublicHardErrorSubstrates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	line, err := readduo.NewMLCLine()
	if err != nil {
		t.Fatal(err)
	}
	line.ArmWearout(30, 0.25, rng)
	pl, err := readduo.NewECPLine(line, 8)
	if err != nil {
		t.Fatalf("NewECPLine: %v", err)
	}
	data := make([]byte, pl.DataBytes())
	var exhausted bool
	for w := 0; w < 80; w++ {
		rng.Read(data)
		if err := pl.Write(data, float64(w), rng); err != nil {
			if !errors.Is(err, readduo.ErrECPExhausted) {
				t.Fatalf("write: %v", err)
			}
			exhausted = true
			break
		}
		res, err := pl.Read(readduo.LineReadR, float64(w))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatal("ECP lost data while under capacity")
		}
	}
	if !exhausted {
		t.Error("endurance-30 hammering never exhausted ECP-8")
	}

	sg, err := readduo.NewStartGap(32, 16)
	if err != nil {
		t.Fatalf("NewStartGap: %v", err)
	}
	if _, err := sg.Map(5); err != nil {
		t.Errorf("Map: %v", err)
	}
	var moved bool
	for i := 0; i < 64; i++ {
		if _, ok := sg.OnWrite(); ok {
			moved = true
		}
	}
	if !moved {
		t.Error("Start-Gap never moved over 64 writes at psi=16")
	}
}

func TestPublicPhysicsFamilies(t *testing.T) {
	// The LWC family and the environment axis through the public facade.
	lwc := readduo.SchemeLWC(16)
	if lwc.Name() != "LWC-16" {
		t.Fatalf("SchemeLWC(16).Name() = %q", lwc.Name())
	}
	cryo, err := readduo.SchemeAtEnv(readduo.SchemeScrubbing(), readduo.SchemeEnvironment{TempK: 250})
	if err != nil {
		t.Fatalf("SchemeAtEnv: %v", err)
	}
	if cryo.Name() != "Scrubbing@temp=250" {
		t.Fatalf("cryo scheme name %q", cryo.Name())
	}
	// The default environment is the identity, keeping cache keys stable.
	same, err := readduo.SchemeAtEnv(lwc, readduo.SchemeEnvironment{TempK: 300})
	if err != nil {
		t.Fatal(err)
	}
	if same != lwc {
		t.Errorf("default environment changed the scheme: %+v", same)
	}
	for _, spec := range []string{"lwc:r=16", "scrubbing:temp=250", "LWT-4@disturb=1e-06"} {
		s, err := readduo.ParseScheme(spec)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", spec, err)
			continue
		}
		if back, err := readduo.ParseScheme(s.Name()); err != nil || back != s {
			t.Errorf("%q does not round-trip through its name %q: %v", spec, s.Name(), err)
		}
	}
}
