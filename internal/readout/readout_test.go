package readout

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"readduo/internal/lwt"
	"readduo/internal/sense"
)

func mustDevice(t testing.TB, cfg Config) *Device {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func payload(rng *rand.Rand, n int) []byte {
	buf := make([]byte, n)
	rng.Read(buf)
	return buf
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	muts := []func(*Config){
		func(c *Config) { c.K = 1 },
		func(c *Config) { c.SDWSpacing = 9 },
		func(c *Config) { c.ScrubInterval = 0 },
		func(c *Config) { c.ScrubW = -1 },
		func(c *Config) { c.Phase = c.ScrubInterval },
		func(c *Config) { c.Timing.RRead = 0 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewDevice(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFreshWriteReadsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := mustDevice(t, DefaultConfig())
	data := payload(rng, d.DataBytes())
	mode, err := d.Write(data, 10, rng)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if mode.String() != "full" {
		t.Errorf("first write mode %v", mode)
	}
	res, err := d.Read(20, nil, rng)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.Mode != sense.ModeR {
		t.Errorf("fresh read mode %v, want R-read", res.Mode)
	}
	if res.Latency != 150*time.Nanosecond {
		t.Errorf("fresh read latency %v", res.Latency)
	}
	if !bytes.Equal(res.Data, data) {
		t.Error("payload mismatch")
	}
}

func TestStaleReadFallsBackToM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := mustDevice(t, DefaultConfig())
	data := payload(rng, d.DataBytes())
	if _, err := d.Write(data, 0, rng); err != nil {
		t.Fatal(err)
	}
	// Two full intervals later the write is untracked.
	res, err := d.Read(1500, nil, rng)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.Mode != sense.ModeRM {
		t.Errorf("stale read mode %v, want R-M-read", res.Mode)
	}
	if res.Latency != 600*time.Nanosecond {
		t.Errorf("stale read latency %v", res.Latency)
	}
	if !bytes.Equal(res.Data, data) {
		t.Error("payload lost after 1500 s")
	}
	st := d.Stats()
	if st.Scrubs == 0 {
		t.Error("overdue scrubs not applied")
	}
}

func TestConversionRestoresFastReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := mustDevice(t, DefaultConfig())
	conv, err := lwt.NewConverter(lwt.WithInitialT(100))
	if err != nil {
		t.Fatal(err)
	}
	data := payload(rng, d.DataBytes())
	if _, err := d.Write(data, 0, rng); err != nil {
		t.Fatal(err)
	}
	res, err := d.Read(2000, conv, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != sense.ModeRM || !res.Converted {
		t.Fatalf("first stale read: mode %v converted %v", res.Mode, res.Converted)
	}
	// The very next read in the same sub-interval rides the conversion.
	res, err = d.Read(2001, conv, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != sense.ModeR {
		t.Errorf("post-conversion read mode %v, want R-read", res.Mode)
	}
	if !bytes.Equal(res.Data, data) {
		t.Error("conversion corrupted payload")
	}
	if d.Stats().Conversions != 1 {
		t.Errorf("conversions = %d", d.Stats().Conversions)
	}
}

func TestSDWDifferentialWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := mustDevice(t, DefaultConfig()) // Select-(4:2)
	data := payload(rng, d.DataBytes())
	if _, err := d.Write(data, 0, rng); err != nil {
		t.Fatal(err)
	}
	// A second write moments later: within s sub-intervals -> differential.
	data[0] ^= 0xff
	mode, err := d.Write(data, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mode.String() != "differential" {
		t.Errorf("immediate rewrite mode %v", mode)
	}
	st := d.Stats()
	if st.FullWrites != 1 || st.DiffWrites != 1 {
		t.Errorf("write split %d/%d", st.FullWrites, st.DiffWrites)
	}
	// Differential writes program far fewer cells than 296.
	if st.CellsWritten >= 2*296 {
		t.Errorf("cells written %d, differential saving missing", st.CellsWritten)
	}
	res, err := d.Read(2, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Error("differential write lost data")
	}
}

func TestTimeMonotonicityEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := mustDevice(t, DefaultConfig())
	if _, err := d.Write(payload(rng, d.DataBytes()), 100, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(50, nil, rng); err == nil {
		t.Error("time running backwards accepted")
	}
	if _, err := mustDevice(t, DefaultConfig()).Read(0, nil, rng); err == nil {
		t.Error("read of unwritten device accepted")
	}
}

// TestCorrectnessProperty is the end-to-end keystone: across random
// schedules of writes and reads spanning many scrub intervals, every read
// must return the most recently written payload — R-sensing when tracked,
// M-sensing otherwise — against real simulated cells and a real BCH codec.
// Each schedule runs once without and once with R-M-read conversion.
func TestCorrectnessProperty(t *testing.T) {
	var conversions int
	schedule := func(seed int64, convert bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Phase = time.Duration(rng.Intn(640)) * time.Second
		d, err := NewDevice(cfg)
		if err != nil {
			return false
		}
		var conv *lwt.Converter
		if convert {
			if conv, err = lwt.NewConverter(); err != nil {
				return false
			}
		}
		current := payload(rng, d.DataBytes())
		if _, err := d.Write(current, 0, rng); err != nil {
			return false
		}
		now := 0.0
		for op := 0; op < 60; op++ {
			// Jumps from seconds to half an hour keep mixing tracked and
			// untracked states.
			now += 1 + rng.Float64()*float64(rng.Intn(1800))
			if rng.Intn(3) == 0 {
				current = payload(rng, d.DataBytes())
				if _, err := d.Write(current, now, rng); err != nil {
					return false
				}
				continue
			}
			res, err := d.Read(now, conv, rng)
			if err != nil {
				return false
			}
			if res.Converted {
				conversions++
			}
			if !bytes.Equal(res.Data, current) {
				return false
			}
		}
		return true
	}
	prop := func(seed int64) bool { return schedule(seed, false) && schedule(seed, true) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	if conversions == 0 {
		t.Error("no read was converted: the converter path went untested")
	}
}

// TestReadModeMatchesTrackingOracle cross-checks the device's mode decision
// against the closed-form freshness rule on its own timeline.
func TestReadModeMatchesTrackingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultConfig()
	cfg.SDWSpacing = 0 // full writes only: every write refreshes tracking
	d := mustDevice(t, cfg)
	s := cfg.ScrubInterval.Seconds()
	sub := s / float64(cfg.K)
	lastWrite := 0.0
	if _, err := d.Write(payload(rng, d.DataBytes()), 0, rng); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for op := 0; op < 200; op++ {
		now += rng.Float64() * 400
		if rng.Intn(4) == 0 {
			if _, err := d.Write(payload(rng, d.DataBytes()), now, rng); err != nil {
				t.Fatal(err)
			}
			lastWrite = now
			continue
		}
		res, err := d.Read(now, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle in global sub-interval indices relative to the phase.
		phase := cfg.Phase.Seconds()
		subNow := int64((now - phase + s) / sub)
		subW := int64((lastWrite - phase + s) / sub)
		fresh := subNow-subW < int64(cfg.K)
		wantR := fresh
		// Scrub rewrites can also refresh the line; they only ADD
		// R-readability, so assert one direction strictly:
		if wantR && res.Mode != sense.ModeR {
			t.Fatalf("op %d: fresh line read with %v (now=%v lastWrite=%v)", op, res.Mode, now, lastWrite)
		}
		if !fresh && res.Mode == sense.ModeR && d.Stats().ScrubRewrites == 0 {
			t.Fatalf("op %d: stale line allowed R-read without any scrub rewrite", op)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := mustDevice(t, DefaultConfig())
	if _, err := d.Write(payload(rng, d.DataBytes()), 0, rng); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := d.Read(float64(i), nil, rng); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.RReads != 10 || st.RMReads != 0 || st.FullWrites != 1 {
		t.Errorf("stats %+v", st)
	}
}
