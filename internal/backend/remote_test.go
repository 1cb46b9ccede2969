package backend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"readduo/internal/campaign"
)

// fakeWorker is an httptest worker answering /compute and /healthz.
func fakeWorker(t *testing.T, compute http.HandlerFunc) (addr string, done func()) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(ComputePath, compute)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(mux)
	return strings.TrimPrefix(ts.URL, "http://"), ts.Close
}

// echoWorker answers with its own id plus the routed key, so tests can
// see which node served a request.
func echoWorker(t *testing.T, id string) (string, func()) {
	return fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		var req ComputeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%s:%s\n", id, req.Key)
	})
}

func localFallback(t *testing.T) (*Local, *campaign.Pool) {
	t.Helper()
	pool := campaign.NewPool(2, 4, nil)
	l := NewLocal(pool, func(_ context.Context, spec Spec) ([]byte, error) {
		return []byte("local:" + spec.Op + "\n"), nil
	}, time.Minute)
	return l, pool
}

func TestRemoteRoutesConsistently(t *testing.T) {
	a, closeA := echoWorker(t, "a")
	defer closeA()
	b, closeB := echoWorker(t, "b")
	defer closeB()
	r, err := NewRemote([]string{a, b}, nil, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	served := map[string]string{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("policy|e=%d", i)
		buf, err := r.Compute(context.Background(), key, Spec{Op: "policy"})
		if err != nil {
			t.Fatalf("compute %s: %v", key, err)
		}
		node := strings.SplitN(string(buf), ":", 2)[0]
		served[key] = node
		// The same key must route to the same node every time.
		buf2, err := r.Compute(context.Background(), key, Spec{Op: "policy"})
		if err != nil || !strings.HasPrefix(string(buf2), node+":") {
			t.Fatalf("key %s rerouted: %q vs node %s (%v)", key, buf2, node, err)
		}
	}
	nodes := map[string]bool{}
	for _, n := range served {
		nodes[n] = true
	}
	if len(nodes) != 2 {
		t.Fatalf("only nodes %v served 40 distinct keys", nodes)
	}
}

func TestRemoteFallsBackOnNodeError(t *testing.T) {
	addr, closeW := fakeWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	})
	defer closeW()
	local, pool := localFallback(t)
	defer pool.Close()
	r, err := NewRemote([]string{addr}, local, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf, err := r.Compute(context.Background(), "k", Spec{Op: "mc"})
	if err != nil || string(buf) != "local:mc\n" {
		t.Fatalf("fallback got %q, %v", buf, err)
	}
}

func TestRemoteTimeoutFallsBack(t *testing.T) {
	release := make(chan struct{})
	addr, closeW := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body: the server starts its disconnect-detecting
		// background read only once the request body is consumed, and a
		// handler that blocks with it unread never sees Context().Done().
		io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	// LIFO: release the handler before Close waits for it to return.
	defer closeW()
	defer close(release)
	local, pool := localFallback(t)
	defer pool.Close()
	r, err := NewRemote([]string{addr}, local, RemoteOptions{ComputeTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf, err := r.Compute(context.Background(), "k", Spec{Op: "ler"})
	if err != nil || string(buf) != "local:ler\n" {
		t.Fatalf("timeout fallback got %q, %v", buf, err)
	}
}

func TestRemoteCircuitOpensAfterThreshold(t *testing.T) {
	var calls atomic.Int64
	addr, closeW := fakeWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	})
	defer closeW()
	// No local fallback: failures surface, and an open circuit is 503.
	r, err := newRemote([]string{addr}, nil, RemoteOptions{}, breaker{
		failThreshold:  2,
		cooldown:       time.Hour,
		healthInterval: time.Hour, // keep the probe out of this test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, err := r.Compute(context.Background(), "k", Spec{}); err == nil {
			t.Fatal("failing worker reported success")
		}
	}
	before := calls.Load()
	_, err = r.Compute(context.Background(), "k", Spec{})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open circuit still hit the worker")
	}
	if st := r.Nodes(); !st[0].Open || st[0].Failures < 2 {
		t.Fatalf("node status: %+v", st[0])
	}
}

func TestRemoteCircuitOpenFallsBackWhenLocalPresent(t *testing.T) {
	addr, closeW := fakeWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	})
	defer closeW()
	local, pool := localFallback(t)
	defer pool.Close()
	r, err := newRemote([]string{addr}, local, RemoteOptions{}, breaker{
		failThreshold:  1,
		cooldown:       time.Hour,
		healthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Compute(context.Background(), "k", Spec{Op: "x"}) // opens the circuit (and falls back)
	buf, err := r.Compute(context.Background(), "k", Spec{Op: "x"})
	if err != nil || string(buf) != "local:x\n" {
		t.Fatalf("circuit-open fallback got %q, %v", buf, err)
	}
}

func TestRemoteBadSpecDoesNotFallBack(t *testing.T) {
	addr, closeW := fakeWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"e=999 out of range"}`, http.StatusBadRequest)
	})
	defer closeW()
	local, pool := localFallback(t)
	defer pool.Close()
	r, err := NewRemote([]string{addr}, local, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Compute(context.Background(), "k", Spec{})
	var bad BadSpecError
	if !errors.As(err, &bad) || !strings.Contains(bad.Msg, "out of range") {
		t.Fatalf("err = %v, want BadSpecError", err)
	}
	// A request error must not poison the breaker.
	if st := r.Nodes(); st[0].Open || st[0].Failures != 0 {
		t.Fatalf("breaker tripped by a 400: %+v", st[0])
	}
}

func TestRemoteCallerCancellationNoFallback(t *testing.T) {
	release := make(chan struct{})
	addr, closeW := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // see TestRemoteTimeoutFallsBack
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	defer closeW()
	defer close(release)
	local, pool := localFallback(t)
	defer pool.Close()
	r, err := NewRemote([]string{addr}, local, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = r.Compute(ctx, "k", Spec{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want caller's DeadlineExceeded", err)
	}
	if st := r.Nodes(); st[0].Failures != 0 {
		t.Fatalf("caller cancellation blamed the node: %+v", st[0])
	}
}

func TestRemoteHealthProbeClosesCircuit(t *testing.T) {
	var healthy atomic.Bool
	var calls atomic.Int64
	addr, closeW := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if !healthy.Load() {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	defer closeW()
	r, err := newRemote([]string{addr}, nil, RemoteOptions{}, breaker{
		failThreshold:  1,
		cooldown:       time.Hour, // only the probe can close it
		healthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Compute(context.Background(), "k", Spec{}); err == nil {
		t.Fatal("unhealthy worker reported success")
	}
	if !r.Nodes()[0].Open {
		t.Fatal("circuit did not open")
	}
	healthy.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for r.Nodes()[0].Open && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Nodes()[0].Open {
		t.Fatal("health probe never closed the circuit")
	}
	buf, err := r.Compute(context.Background(), "k", Spec{})
	if err != nil || string(buf) != "ok\n" {
		t.Fatalf("recovered worker: %q, %v", buf, err)
	}
}
