package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunServesAndDrainsOnSIGTERM boots the real service on an ephemeral
// port, drives a request through it, then delivers SIGTERM to the
// process and verifies run returns through the graceful-drain path.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(config{
			addr:           "127.0.0.1:0",
			workers:        2,
			cacheBytes:     1 << 20,
			requestTimeout: 10 * time.Second,
			drainTimeout:   10 * time.Second,
		}, func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}

	resp, err := http.Get("http://" + addr + "/v1/policy?e=8&s=16&w=1")
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "meets") {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after SIGTERM")
	}
}

// boot starts run with cfg on an ephemeral port and returns the bound
// address plus the exit channel.
func boot(t *testing.T, cfg config) (string, chan error) {
	t.Helper()
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(cfg, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return addr, done
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}
	panic("unreachable")
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func sigterm(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after SIGTERM")
	}
}

// TestRunComputesAndDrainsOnSIGTERM boots the service in the role of a
// worker, the way a front node's -remote-workers reaches it: a spec
// routed to /compute answers the bytes the public endpoint serves, a
// mismatched key is refused deterministically (version-skew guard)
// rather than computed under the wrong identity, and SIGTERM drains.
func TestRunComputesAndDrainsOnSIGTERM(t *testing.T) {
	addr, done := boot(t, config{
		addr:           "127.0.0.1:0",
		workers:        2,
		requestTimeout: 10 * time.Second,
		drainTimeout:   10 * time.Second,
	})
	code, want := getBody(t, "http://"+addr+"/v1/policy?e=8&s=16&w=1")
	if code != http.StatusOK || !strings.Contains(want, "meets") {
		t.Fatalf("policy: status %d body %s", code, want)
	}

	routed := `{"key":"policy|m=R|t=300|e=8|s=16|w=1","spec":{"op":"policy","body":{"metric":"R","e":8,"s":16,"w":1}}}`
	code, out := postBody(t, "http://"+addr+"/compute", routed)
	if code != http.StatusOK || out != want {
		t.Fatalf("compute: status %d body %s, want 200 with %s", code, out, want)
	}
	skew := strings.Replace(routed, "e=8", "e=9", 1)
	code, out = postBody(t, "http://"+addr+"/compute", skew)
	if code != http.StatusBadRequest || !strings.Contains(out, "mismatch") {
		t.Fatalf("skewed key: status %d body %s, want 400 mismatch", code, out)
	}
	sigterm(t, done)
}

func postBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(out)
}

// TestRunObservabilityEndToEnd boots the service with the full
// telemetry stack (collector, persistent series dir, dashboard
// listener), exercises the live surfaces, drains, then restarts on the
// same series dir and verifies history survives — the tentpole
// acceptance path in one test.
func TestRunObservabilityEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		addr:              "127.0.0.1:0",
		workers:           2,
		cacheBytes:        1 << 20,
		requestTimeout:    10 * time.Second,
		drainTimeout:      10 * time.Second,
		telemetryInterval: 20 * time.Millisecond,
		telemetryDir:      dir,
		dashAddr:          "127.0.0.1:0",
	}
	addr, done := boot(t, cfg)

	for i := 0; i < 5; i++ {
		if code, body := getBody(t, "http://"+addr+"/v1/policy?e=8&s=16&w=1"); code != http.StatusOK {
			t.Fatalf("policy: %d: %s", code, body)
		}
	}
	// Let the collector tick at least once with the traffic applied.
	deadline := time.Now().Add(5 * time.Second)
	var series string
	for time.Now().Before(deadline) {
		_, series = getBody(t, "http://"+addr+"/api/series?name=server.http.requests")
		if strings.Contains(series, `"v":`) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(series, `"v":`) {
		t.Fatalf("collector never sampled: %s", series)
	}

	if code, body := getBody(t, "http://"+addr+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "readduo_serve_server_http_requests") {
		t.Fatalf("metrics: %d: %.200s", code, body)
	}
	if code, body := getBody(t, "http://"+addr+"/statusz"); code != http.StatusOK ||
		!strings.Contains(body, `"slo"`) {
		t.Fatalf("statusz without slo: %d: %s", code, body)
	}
	sigterm(t, done)

	// Restart on the same series dir: history from the first run is
	// re-served before any new collection happens.
	cfg.telemetryInterval = time.Hour
	addr, done = boot(t, cfg)
	code, body := getBody(t, "http://"+addr+"/api/series?name=server.http.requests")
	if code != http.StatusOK || !strings.Contains(body, `"v":`) {
		t.Fatalf("restart lost series history: %d: %s", code, body)
	}
	sigterm(t, done)
}

// sigtermChildEnv marks a re-executed test binary as a child of
// TestSIGTERMAtReadinessDrains.
const sigtermChildEnv = "READDUO_SERVE_SIGTERM_CHILD"

// TestSIGTERMAtReadinessDrains pins the readiness/SIGTERM ordering: a
// supervisor may signal the instant readiness is reported, and that
// signal must drain the service, not kill it. Each round re-executes the
// test binary as a child whose started callback sends SIGTERM to its own
// process synchronously; were the handler armed after readiness, Go's
// default action would kill the child and the round would fail.
func TestSIGTERMAtReadinessDrains(t *testing.T) {
	if os.Getenv(sigtermChildEnv) == "1" {
		err := run(config{
			addr:           "127.0.0.1:0",
			workers:        2,
			cacheBytes:     1 << 20,
			requestTimeout: 10 * time.Second,
			drainTimeout:   10 * time.Second,
		}, func(string) {
			if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
				t.Errorf("SIGTERM: %v", err)
			}
		})
		if err != nil {
			t.Fatalf("run returned %v, want clean drain", err)
		}
		return
	}
	for round := 0; round < 20; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSIGTERMAtReadinessDrains$", "-test.count=1")
		// Under -race the child would otherwise sleep 1s at exit.
		cmd.Env = append(os.Environ(), sigtermChildEnv+"=1",
			"GORACE="+os.Getenv("GORACE")+" atexit_sleep_ms=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("round %d: child exited with %v:\n%s", round, err, out)
		}
		if !bytes.Contains(out, []byte("drained cleanly")) {
			t.Fatalf("round %d: child did not log a clean drain:\n%s", round, out)
		}
	}
}
