package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStartForceRegistry covers the long-running-service bootstrap
// (readduo-serve): ForceRegistry alone yields a live registry, but no
// exit report — Report stays silent and writes no JSON file.
func TestStartForceRegistry(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "telemetry.json")
	s, err := Start(Options{Name: "svc", ForceRegistry: true, JSONPath: jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry == nil {
		t.Fatal("ForceRegistry session has no registry")
	}

	var buf bytes.Buffer
	if err := s.Report(&buf); err != nil {
		t.Fatalf("Report: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("ForceRegistry-only session reported: %q", buf.String())
	}
	if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
		t.Errorf("Report wrote %s without -telemetry (stat err %v)", jsonPath, err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestStartDashAddrError: an unbindable operator listener address must
// fail Start.
func TestStartDashAddrError(t *testing.T) {
	if _, err := Start(Options{Name: "test", DashAddr: "256.256.256.256:0"}); err == nil ||
		!strings.Contains(err.Error(), "dashboard listen") {
		t.Fatalf("Start with unbindable dash address = %v, want dashboard listen error", err)
	}
}

// TestReportJSONPathError: the snapshot table still renders, but an
// uncreatable JSON path surfaces as the Report error.
func TestReportJSONPathError(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "no-such-dir", "telemetry.json")
	s, err := Start(Options{Name: "test", Telemetry: true, JSONPath: jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Registry.Sink("job").Counter("done").Inc()
	var buf bytes.Buffer
	if err := s.Report(&buf); err == nil ||
		!strings.Contains(err.Error(), "telemetry json") {
		t.Fatalf("Report with bad JSON path = %v, want telemetry json error", err)
	}
	if !strings.Contains(buf.String(), "job.done") {
		t.Errorf("table not rendered before the JSON failure:\n%s", buf.String())
	}
}
