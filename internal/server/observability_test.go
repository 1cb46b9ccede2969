package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"readduo/internal/slo"
	"readduo/internal/telemetry"
	"readduo/internal/tsdb"
)

// newObservedServer builds a server with the full observability stack:
// a live registry, a memory-backed collector, and an SLO tracker over
// every endpoint (availability-only, so the /statusz schema does not
// depend on request timing).
func newObservedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *tsdb.Collector) {
	t.Helper()
	reg := telemetry.NewRegistry("readduo-serve")
	store, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := tsdb.NewCollector(reg, store, time.Hour) // ticked via Poll, never by clock
	var objectives []slo.Objective
	for _, ep := range []string{"ler", "policy", "mc", "compare", "schemes"} {
		objectives = append(objectives, slo.Objective{Endpoint: ep, Availability: 0.999})
	}
	tracker := slo.NewTracker("server", objectives, nil)
	cfg.Registry = reg
	cfg.Collector = c
	cfg.SLO = tracker
	srv, ts := newTestServer(t, cfg)
	c.AddCollect(srv.TelemetrySamples)
	c.AddCollect(tracker.Collect)
	return srv, ts, c
}

// promValues parses counter/gauge sample lines ("name 42") out of a
// Prometheus text exposition.
func promValues(body string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}

// TestMetricsExposition scrapes /metrics twice with traffic in between:
// the series-name set must be identical (deterministic names) and every
// counter monotone non-decreasing.
func TestMetricsExposition(t *testing.T) {
	_, ts, _ := newObservedServer(t, Config{})

	hit := func(n int) {
		for i := 0; i < n; i++ {
			resp, body := get(t, ts, "/v1/policy?e=8&s=64&w=1")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("policy: %d: %s", resp.StatusCode, body)
			}
		}
	}
	hit(3)
	resp, body1 := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type %q", ct)
	}
	hit(2)
	_, body2 := get(t, ts, "/metrics")

	first, second := promValues(string(body1)), promValues(string(body2))
	names := func(m map[string]float64) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(names(first), names(second)) {
		t.Fatalf("series names changed between scrapes:\n%v\n%v", names(first), names(second))
	}
	for _, counter := range []string{
		"readduo_serve_server_http_requests",
		"readduo_serve_server_endpoint_policy_requests",
		"readduo_serve_server_cache_hits",
	} {
		a, ok1 := first[counter]
		b, ok2 := second[counter]
		if !ok1 || !ok2 {
			t.Fatalf("exposition missing %s:\n%s", counter, body1)
		}
		if b < a {
			t.Errorf("%s went backwards: %v -> %v", counter, a, b)
		}
	}
	if second["readduo_serve_server_http_requests"] != first["readduo_serve_server_http_requests"]+2 {
		t.Errorf("http.requests delta: %v -> %v, want +2",
			first["readduo_serve_server_http_requests"], second["readduo_serve_server_http_requests"])
	}
	if !strings.Contains(string(body1), `readduo_serve_server_http_request_ms_bucket{le="+Inf"}`) {
		t.Error("exposition missing histogram buckets")
	}
}

// TestSeriesAPIOnServeMux drives the collector and reads history back
// through the serving mux's /api/series route.
func TestSeriesAPIOnServeMux(t *testing.T) {
	_, ts, c := newObservedServer(t, Config{})
	for i := 0; i < 3; i++ {
		if resp, _ := get(t, ts, "/v1/schemes"); resp.StatusCode != http.StatusOK {
			t.Fatalf("schemes: %d", resp.StatusCode)
		}
		c.Poll()
	}
	resp, body := get(t, ts, "/api/series?name=server.http.requests")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("api/series: %d: %s", resp.StatusCode, body)
	}
	var got struct {
		Name   string `json:"name"`
		Points []struct {
			T int64   `json:"t"`
			V float64 `json:"v"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if got.Name != "server.http.requests" || len(got.Points) == 0 {
		t.Fatalf("series response: %+v", got)
	}
	if last := got.Points[len(got.Points)-1]; last.V != 3 {
		t.Fatalf("last requests sample = %v, want 3", last.V)
	}

	// SLO burn series exist as first-class series after the ticks.
	resp, body = get(t, ts, "/api/series?name=slo.schemes.availability.burn_5m")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo series: %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &got); err != nil || len(got.Points) == 0 {
		t.Fatalf("slo burn series empty: %s", body)
	}
}

// TestStatuszSLO: after a collector tick, /statusz carries per-endpoint
// SLO status with both burn windows.
func TestStatuszSLO(t *testing.T) {
	_, ts, c := newObservedServer(t, Config{})
	if resp, _ := get(t, ts, "/v1/schemes"); resp.StatusCode != http.StatusOK {
		t.Fatal("schemes request failed")
	}
	c.Poll()

	_, body := get(t, ts, "/statusz")
	var st struct {
		SLO []struct {
			Endpoint     string  `json:"endpoint"`
			Availability float64 `json:"availability"`
			Requests     uint64  `json:"requests"`
			Windows      []struct {
				Window string `json:"window"`
			} `json:"windows"`
		} `json:"slo"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad statusz JSON: %v\n%s", err, body)
	}
	if len(st.SLO) != 5 {
		t.Fatalf("statusz has %d SLO entries, want 5: %s", len(st.SLO), body)
	}
	byEp := make(map[string]int)
	for _, e := range st.SLO {
		byEp[e.Endpoint] = len(e.Windows)
		if e.Availability != 0.999 {
			t.Errorf("%s availability = %v", e.Endpoint, e.Availability)
		}
	}
	if byEp["schemes"] != 2 {
		t.Fatalf("schemes windows = %d, want 2 (5m+1h): %s", byEp["schemes"], body)
	}
	for _, e := range st.SLO {
		if e.Endpoint == "schemes" && e.Requests != 1 {
			t.Errorf("schemes requests = %d, want 1", e.Requests)
		}
	}
}

var updateStatuszSchema = flag.Bool("update-statusz-schema", false,
	"rewrite testdata/statusz_schema.json from the current /statusz shape")

// shapeOf reduces a decoded JSON value to its type shape: objects keep
// their field names, arrays keep one element shape, scalars become
// their type name. The golden schema pins field presence and types
// without pinning values.
func shapeOf(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, val := range x {
			out[k] = shapeOf(val)
		}
		return out
	case []any:
		if len(x) == 0 {
			return []any{}
		}
		return []any{shapeOf(x[0])}
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "bool"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// TestStatuszGoldenSchema pins the /statusz wire schema: adding a field
// updates the golden deliberately; renaming, retyping or dropping one
// fails here before it breaks a deployed scraper. The response is
// taken from a fully-populated server (remote workers, SLO, collector
// tick) so every optional section appears.
func TestStatuszGoldenSchema(t *testing.T) {
	w1, stop1 := startWorkerTS(t)
	defer stop1()
	_, ts, c := newObservedServer(t, Config{RemoteWorkers: []string{w1}})
	if resp, _ := get(t, ts, "/v1/schemes"); resp.StatusCode != http.StatusOK {
		t.Fatal("schemes request failed")
	}
	c.Poll()

	_, body := get(t, ts, "/statusz")
	var decoded any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("bad statusz JSON: %v\n%s", err, body)
	}
	shape := shapeOf(decoded)

	path := filepath.Join("testdata", "statusz_schema.json")
	if *updateStatuszSchema {
		buf, err := json.MarshalIndent(shape, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read schema golden: %v (regenerate with -update-statusz-schema)", err)
	}
	var want any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode schema golden: %v", err)
	}
	// Normalize got through a JSON round trip so both sides compare as
	// generic decoded values.
	buf, err := json.Marshal(shape)
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("/statusz schema drifted from golden (regenerate deliberately with -update-statusz-schema):\ngot:\n%s\nwant:\n%s",
			gotJSON, raw)
	}
}
