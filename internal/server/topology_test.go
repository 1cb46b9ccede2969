package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"readduo/internal/telemetry"
)

// startWorkerTS runs a Server under httptest as a worker and returns its
// host:port address (the form RemoteWorkers expects) plus a kill switch.
func startWorkerTS(t *testing.T) (string, func()) {
	t.Helper()
	wk, err := New(Config{
		Workers:  2,
		Registry: telemetry.NewRegistry("worker-test"),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(wk.Handler())
	stop := func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		wk.Shutdown(ctx)
	}
	return strings.TrimPrefix(ts.URL, "http://"), stop
}

// topologyPaths is the query mix every topology must answer
// byte-identically: all four compute ops plus the uncached metadata
// endpoint.
func topologyPaths() []string {
	paths := []string{
		"/v1/ler?metric=R&eccs=8,16&intervals=16,64",
		"/v1/ler?metric=M&eccs=8&intervals=16,32,64",
		"/v1/schemes?spec=lwt:k=8",
		"/v1/compare?benchmark=gcc&schemes=ideal,scrubbing&budget=15000&seed=3",
	}
	for _, e := range []int{4, 8, 16} {
		for _, s := range []int{16, 64} {
			paths = append(paths, fmt.Sprintf("/v1/policy?e=%d&s=%d&w=1", e, s))
		}
	}
	for seed := 1; seed <= 3; seed++ {
		paths = append(paths, fmt.Sprintf("/v1/mc?cells=2000&seed=%d&shards=8", seed))
	}
	return paths
}

// TestTopologyByteIdentity is the tentpole acceptance test: the same
// query corpus served by (a) a local-only server, (b) a server with a
// disk cache tier, and (c) a server routing across two remote workers
// must produce byte-identical response bodies, because every topology
// runs the same deterministic evaluator and caches finished bytes.
func TestTopologyByteIdentity(t *testing.T) {
	w1, stop1 := startWorkerTS(t)
	defer stop1()
	w2, stop2 := startWorkerTS(t)
	defer stop2()

	topologies := []struct {
		name string
		cfg  Config
	}{
		{"local", Config{}},
		{"disk-tier", Config{DiskCacheDir: t.TempDir(), DiskCacheBytes: 1 << 20}},
		{"two-workers", Config{RemoteWorkers: []string{w1, w2}}},
	}

	paths := topologyPaths()
	bodies := make(map[string][]string) // path -> body per topology
	for _, topo := range topologies {
		_, ts := newTestServer(t, topo.cfg)
		for _, path := range paths {
			resp, body := get(t, ts, path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("[%s] %s: status %d: %s", topo.name, path, resp.StatusCode, body)
			}
			bodies[path] = append(bodies[path], string(body))
		}
	}
	for _, path := range paths {
		for i := 1; i < len(bodies[path]); i++ {
			if bodies[path][0] != bodies[path][i] {
				t.Errorf("%s: %s and %s disagree:\n%s\n%s", path,
					topologies[0].name, topologies[i].name,
					bodies[path][0], bodies[path][i])
			}
		}
	}
}

// TestTopologyWorkerKillDegrades kills one of two workers mid-run and
// verifies the frontend keeps answering 200 with the same bytes a
// healthy topology produces: failed routes fall back to local compute,
// and the dead node's circuit opens instead of wedging requests.
func TestTopologyWorkerKillDegrades(t *testing.T) {
	w1, stop1 := startWorkerTS(t)
	defer stop1()
	w2, stop2 := startWorkerTS(t)
	stopped := false
	defer func() {
		if !stopped {
			stop2()
		}
	}()

	// Reference bytes from a local-only server.
	_, localTS := newTestServer(t, Config{})
	remoteSrv, remoteTS := newTestServer(t, Config{RemoteWorkers: []string{w1, w2}})

	paths := topologyPaths()
	half := len(paths) / 2
	check := func(subset []string) {
		t.Helper()
		for _, path := range subset {
			wantResp, want := get(t, localTS, path)
			if wantResp.StatusCode != http.StatusOK {
				t.Fatalf("local %s: status %d", path, wantResp.StatusCode)
			}
			resp, body := get(t, remoteTS, path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("remote %s: status %d: %s", path, resp.StatusCode, body)
			}
			if string(want) != string(body) {
				t.Errorf("%s: bytes diverge after degradation:\n%s\n%s", path, want, body)
			}
		}
	}

	check(paths[:half])
	stop2() // kill one worker mid-run
	stopped = true
	check(paths[half:])

	// Spread enough distinct keys across the ring that the dead node sees
	// its three consecutive failures with overwhelming probability (each
	// key has ~1/2 odds of routing there, and the dead node can never
	// interleave a success to reset its streak).
	for seed := 100; seed < 140; seed++ {
		resp, body := get(t, remoteTS, fmt.Sprintf("/v1/mc?cells=500&seed=%d", seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill mc seed=%d: status %d: %s", seed, resp.StatusCode, body)
		}
	}

	// Requests routed at the dead node must have fallen back locally or
	// reached the surviving worker; either way the error budget shows up
	// on the breaker, not on clients.
	resp, body := get(t, remoteTS, "/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "remote[2]") {
		t.Fatalf("statusz lost the backend kind: %s", body)
	}

	// Breaker transition sequence: the dead node's circuit tripped open
	// exactly once and never closed (the worker stays dead, so neither a
	// half-open trial nor a health probe can succeed), and the open
	// circuit short-circuited at least one later request.
	sink := remoteSrv.reg.Sink("server")
	if open := sink.Counter("remote.breaker.open").Value(); open != 1 {
		t.Errorf("breaker open transitions = %d, want exactly 1", open)
	}
	if closed := sink.Counter("remote.breaker.close").Value(); closed != 0 {
		t.Errorf("breaker close transitions = %d, want 0 while the worker is dead", closed)
	}
	if skipped := sink.Counter("remote.circuit_open").Value(); skipped == 0 {
		t.Error("open circuit never short-circuited a request")
	}
}
