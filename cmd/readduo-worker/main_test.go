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

// TestRunComputesAndDrainsOnSIGTERM boots the real worker on an
// ephemeral port, drives a routed compute through it (including the
// key-verification path), then delivers SIGTERM and verifies run
// returns through the graceful-drain path.
func TestRunComputesAndDrainsOnSIGTERM(t *testing.T) {
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(config{
			addr:           "127.0.0.1:0",
			workers:        2,
			computeTimeout: 10 * time.Second,
			drainTimeout:   10 * time.Second,
		}, func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("worker never came up")
	}

	body := `{"key":"policy|m=R|t=300|e=8|s=16|w=1","spec":{"op":"policy","body":{"metric":"R","e":8,"s":16,"w":1}}}`
	resp, err := http.Post("http://"+addr+"/compute", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), "meets") {
		t.Fatalf("status %d body %s", resp.StatusCode, out)
	}

	// A mismatched key must be refused deterministically (version-skew
	// guard), not computed under the wrong identity.
	skew := `{"key":"policy|m=R|t=300|e=9|s=16|w=1","spec":{"op":"policy","body":{"metric":"R","e":8,"s":16,"w":1}}}`
	resp, err = http.Post("http://"+addr+"/compute", "application/json", bytes.NewReader([]byte(skew)))
	if err != nil {
		t.Fatalf("skewed compute: %v", err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "mismatch") {
		t.Fatalf("skewed key: status %d body %s, want 400 mismatch", resp.StatusCode, out)
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

// sigtermChildEnv marks a re-executed test binary as a child of
// TestSIGTERMAtReadinessDrains.
const sigtermChildEnv = "READDUO_WORKER_SIGTERM_CHILD"

// TestSIGTERMAtReadinessDrains pins the readiness/SIGTERM ordering: a
// supervisor may signal the instant readiness is reported, and that
// signal must drain the worker, not kill it. Each round re-executes the
// test binary as a child whose started callback sends SIGTERM to its own
// process synchronously; were the handler armed after readiness, Go's
// default action would kill the child and the round would fail.
func TestSIGTERMAtReadinessDrains(t *testing.T) {
	if os.Getenv(sigtermChildEnv) == "1" {
		err := run(config{
			addr:           "127.0.0.1:0",
			workers:        2,
			computeTimeout: 10 * time.Second,
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
