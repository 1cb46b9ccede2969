package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestStartDisabledIsInert checks the all-flags-off session: nil
// registry, no report output, clean close.
func TestStartDisabledIsInert(t *testing.T) {
	s, err := Start(Options{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry != nil || s.Collector != nil {
		t.Errorf("disabled session has live components: %+v", s)
	}
	var buf bytes.Buffer
	if err := s.Report(&buf); err != nil {
		t.Errorf("Report: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled session reported: %q", buf.String())
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestStartTelemetryReportsCounters checks the full bootstrap: a
// counter the command increments shows up in the snapshot table, and
// the JSON file round-trips it.
func TestStartTelemetryReportsCounters(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "telemetry.json")
	s, err := Start(Options{Name: "test", Telemetry: true, JSONPath: jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Registry == nil {
		t.Fatal("telemetry session has no registry")
	}
	s.Registry.Sink("job").Counter("done").Add(3)

	var buf bytes.Buffer
	if err := s.Report(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "job.done") {
		t.Errorf("report table missing job.done:\n%s", buf.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Name     string            `json:"name"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("telemetry.json: %v", err)
	}
	if snap.Name != "test" {
		t.Errorf("snapshot name = %q", snap.Name)
	}
	if got := snap.Counters["job.done"]; got != 3 {
		t.Errorf("telemetry.json job.done = %d, want 3", got)
	}
}

// TestStartSeedsNoCodecMetrics pins that a fresh session counts only
// work the process did: the simulator models the line code without
// running it, so no bch.* metric may exist before any work.
func TestStartSeedsNoCodecMetrics(t *testing.T) {
	for _, o := range []Options{
		{Name: "sim", Telemetry: true, JSONPath: filepath.Join(t.TempDir(), "telemetry.json")},
		{Name: "svc", ForceRegistry: true},
	} {
		s, err := Start(o)
		if err != nil {
			t.Fatal(err)
		}
		snap := s.Registry.Snapshot()
		var names []string
		for name := range snap.Counters {
			names = append(names, name)
		}
		for name := range snap.Gauges {
			names = append(names, name)
		}
		for name := range snap.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if strings.HasPrefix(name, "bch.") {
				t.Errorf("%s session holds %s before any work", o.Name, name)
			}
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// startDash starts a session whose operator listener sits on a free
// port and returns it with the listener's base URL.
func startDash(t *testing.T, name string) (*Session, string) {
	t.Helper()
	s, err := Start(Options{Name: name, DashAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	return s, "http://" + s.dashLn.Addr().String()
}

// expectGets fetches each path under base and requires a 200 whose body
// contains the wanted text.
func expectGets(t *testing.T, client *http.Client, base string, cases []struct{ path, want string }) {
	t.Helper()
	for _, tc := range cases {
		resp, err := client.Get(base + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read body: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s -> %d, want 200 containing %q: %.200s", tc.path, resp.StatusCode, tc.want, body)
		}
	}
}

// TestStartDashAddr brings the operator listener up on a free port: it
// implies a live registry and collector, serves the dashboard and
// /api/series, and stops accepting once the session closes.
func TestStartDashAddr(t *testing.T) {
	s, base := startDash(t, "test-obs-dash")
	if s.Registry == nil || s.Collector == nil {
		t.Fatal("dash session should imply a registry and a collector")
	}
	client := &http.Client{Timeout: 10 * time.Second}
	expectGets(t, client, base, []struct{ path, want string }{
		{"/", "readduo live"},
		{"/api/series", ""},
	})
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if resp, err := client.Get(base + "/"); err == nil {
		resp.Body.Close()
		t.Error("operator listener still accepting after Close")
	}
}

// TestStartDashAddrPprof checks that the one operator listener also
// carries what a separate debug listener used to: the net/http/pprof
// profiles, and the registry's counters (on /metrics).
func TestStartDashAddrPprof(t *testing.T) {
	s, base := startDash(t, "test-obs-pprof")
	defer s.Close()
	s.Registry.Sink("sim").Counter("reads").Add(99)
	expectGets(t, &http.Client{Timeout: 10 * time.Second}, base, []struct{ path, want string }{
		{"/metrics", "sim_reads 99"},
		{"/debug/pprof/", "goroutine"},
		{"/debug/pprof/heap?debug=1", ""},
		{"/debug/pprof/cmdline", ""},
	})
}
