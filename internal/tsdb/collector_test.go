package tsdb

import (
	"strings"
	"testing"
	"time"

	"readduo/internal/telemetry"
)

// manualCollector builds a collector whose clock is scripted and whose
// loop never runs: tests drive Poll directly.
func manualCollector(t *testing.T, reg *telemetry.Registry, store *Store,
	collects ...CollectFunc) (*Collector, func(ms int64)) {
	t.Helper()
	c := NewCollector(reg, store, time.Hour, collects...)
	var nowMS int64
	c.now = func() time.Time { return time.UnixMilli(nowMS) }
	return c, func(ms int64) { nowMS = ms }
}

func TestCollectorDiffSemantics(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	ctr := reg.Counter("busy")
	reg.Counter("idle") // never incremented after the first sample
	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c, setNow := manualCollector(t, reg, store)

	for i := 0; i < 10; i++ {
		setNow(int64(i * 1000))
		if i%2 == 0 {
			ctr.Inc()
		}
		c.Poll()
	}
	// busy changed on even ticks: first tick plus each increment is
	// retained, unchanged odd ticks are suppressed.
	busy := store.Query("busy", 0)
	if len(busy) != 5 {
		t.Fatalf("busy retained %d points, want 5: %+v", len(busy), busy)
	}
	// idle never changed after its first sample: exactly one point.
	idle := store.Query("idle", 0)
	if len(idle) != 1 {
		t.Fatalf("idle retained %d points, want 1: %+v", len(idle), idle)
	}
}

func TestCollectorHeartbeatBreaksSilence(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	reg.Counter("flat")
	store, _ := Open("")
	c, setNow := manualCollector(t, reg, store)
	c.heartbeatTicks = 5
	for i := 0; i < 20; i++ {
		setNow(int64(i * 1000))
		c.Poll()
	}
	// Tick 0 plus a heartbeat every 5 silent ticks.
	got := store.Query("flat", 0)
	if len(got) != 4 {
		t.Fatalf("flat series retained %d points, want 4: %+v", len(got), got)
	}
}

func TestCollectorHistogramDerivedSeries(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	h := reg.Histogram("lat_ms")
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	store, _ := Open("")
	c, setNow := manualCollector(t, reg, store)
	setNow(1000)
	c.Poll()
	for _, name := range []string{"lat_ms.count", "lat_ms.mean", "lat_ms.p50", "lat_ms.p95", "lat_ms.p99"} {
		if got := store.Query(name, 0); len(got) != 1 {
			t.Fatalf("derived series %s missing: %v", name, store.Names())
		}
	}
	if p, _ := store.Latest("lat_ms.count"); p.Value != 100 {
		t.Fatalf("lat_ms.count = %v", p.Value)
	}
	p50, _ := store.Latest("lat_ms.p50")
	if p50.Value < 32 || p50.Value > 63 {
		t.Fatalf("p50 = %v, want inside [32,63]", p50.Value)
	}
}

func TestCollectorCollectFuncAndSubscribe(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	reg.Counter("base").Add(7)
	store, _ := Open("")
	c, setNow := manualCollector(t, reg, store, func(unixMS int64, snap telemetry.Snapshot) []Sample {
		return []Sample{{Name: "slo.test.burn_5m", Value: float64(snap.Counters["base"]) / 7}}
	})
	ch, cancel := c.Subscribe()
	defer cancel()
	setNow(1000)
	c.Poll()
	tick := <-ch
	if tick.UnixMS != 1000 || len(tick.Samples) != 2 {
		t.Fatalf("tick = %+v", tick)
	}
	// Ticks publish sorted samples.
	if tick.Samples[0].Name != "base" || tick.Samples[1].Name != "slo.test.burn_5m" {
		t.Fatalf("tick order: %+v", tick.Samples)
	}
	if got := store.Query("slo.test.burn_5m", 0); len(got) != 1 || got[0].Value != 1 {
		t.Fatalf("collect-func series: %+v", got)
	}
}

func TestCollectorStartStop(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	reg.Counter("x").Inc()
	store, _ := Open("")
	c := NewCollector(reg, store, time.Millisecond)
	c.Start()
	deadline := time.Now().Add(2 * time.Second)
	for store.SeriesCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if store.SeriesCount() == 0 {
		t.Fatal("running collector never sampled")
	}
}

// TestCollectorStopWithoutStart: a collector that never ran its loop
// must still stop cleanly (flags may disable the dashboard but build
// the session's collector).
func TestCollectorStopWithoutStart(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	store, _ := Open("")
	c := NewCollector(reg, store, time.Second)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop without Start hung")
	}
}

func TestWriteProm(t *testing.T) {
	reg := telemetry.NewRegistry("readduo-serve")
	reg.Counter("server.http.requests").Add(42)
	reg.Gauge("server.pool.depth").Set(-3)
	h := reg.Histogram("server.http.request_ms")
	h.Observe(1)
	h.Observe(3)
	h.Observe(200)

	var sb strings.Builder
	if err := WriteProm(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE readduo_serve_server_http_requests counter\nreadduo_serve_server_http_requests 42\n",
		"# TYPE readduo_serve_server_pool_depth gauge\nreadduo_serve_server_pool_depth -3\n",
		"# TYPE readduo_serve_server_http_request_ms histogram\n",
		`readduo_serve_server_http_request_ms_bucket{le="1"} 1`,
		`readduo_serve_server_http_request_ms_bucket{le="3"} 2`,
		`readduo_serve_server_http_request_ms_bucket{le="255"} 3`,
		`readduo_serve_server_http_request_ms_bucket{le="+Inf"} 3`,
		"readduo_serve_server_http_request_ms_sum 204\n",
		"readduo_serve_server_http_request_ms_count 3\n",
		"readduo_serve_server_http_request_ms_p95 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic across scrapes.
	var sb2 strings.Builder
	if err := WriteProm(&sb2, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("exposition not deterministic across scrapes")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"server.http.requests":            "server_http_requests",
		"readduo-serve":                   "readduo_serve",
		"remote.node.127.0.0.1:8081.open": "remote_node_127_0_0_1_8081_open",
		"9lives":                          "_9lives",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
