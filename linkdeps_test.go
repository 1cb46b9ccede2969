package readduo_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// corePackages are the simulator and campaign layers. Linking net/http
// into them measurably slowed end-to-end sim.Run throughput with every
// probe disabled (DESIGN §8), so the HTTP surfaces live in
// internal/dashboard, internal/obs and internal/server instead.
var corePackages = []string{
	"readduo/internal/sim",
	"readduo/internal/bch",
	"readduo/internal/campaign",
	"readduo/internal/telemetry",
	"readduo/internal/memctrl",
	"readduo/internal/cpu",
	"readduo/internal/trace",
}

// TestCoreLinksNoHTTP pins the link-time rule: no core package reaches
// net/http, directly or transitively. This package's test binary links
// every core package, so editing one of them invalidates the cached
// result and the walk runs again.
func TestCoreLinksNoHTTP(t *testing.T) {
	args := append([]string{"list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}"}, corePackages...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("go list: %v\n%s", err, exit.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(corePackages) {
		t.Fatalf("go list printed %d packages, want %d:\n%s", len(lines), len(corePackages), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, dep := range fields[1:] {
			if dep == "net/http" {
				t.Errorf("%s links %s", fields[0], dep)
			}
		}
	}
}
