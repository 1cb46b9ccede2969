package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStartDisabledIsInert checks the all-flags-off session: nil
// registry and tracer, no report output, clean close.
func TestStartDisabledIsInert(t *testing.T) {
	s, err := Start(Options{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry != nil || s.Tracer != nil {
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

// TestStartTelemetryReportsSelfCheck checks the full bootstrap: the
// codec self-check seeds the bch counters, the table shows them, and
// the JSON file round-trips.
func TestStartTelemetryReportsSelfCheck(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "telemetry.json")
	s, err := Start(Options{Name: "test", Telemetry: true, JSONPath: jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Registry == nil {
		t.Fatal("telemetry session has no registry")
	}

	var buf bytes.Buffer
	if err := s.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bch.encode", "bch.decode.corrected", "bch.decode.uncorrectable"} {
		if !strings.Contains(out, want) {
			t.Errorf("report table missing %s:\n%s", want, out)
		}
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
	if snap.Counters["bch.encode"] == 0 {
		t.Error("self-check left bch.encode at zero")
	}
}

// TestStartTracer checks the span file plumbing.
func TestStartTracer(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "spans.jsonl")
	s, err := Start(Options{Name: "test", TracePath: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	span := s.Tracer.Start("stage")
	span.SetAttr("k", "v")
	span.End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"stage"`) {
		t.Errorf("trace file missing span: %q", data)
	}
}

// TestCodecSelfCheck runs the check standalone (it must hold with
// telemetry disabled too).
func TestCodecSelfCheck(t *testing.T) {
	if err := CodecSelfCheck(); err != nil {
		t.Fatal(err)
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
