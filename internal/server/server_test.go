package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"readduo/internal/backend"
	"readduo/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry("test")
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

func TestLEREndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/v1/ler?metric=R&eccs=8,16&intervals=16,64")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out lerResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Metric != "R" || len(out.Values) != 2 || len(out.Values[0]) != 2 {
		t.Fatalf("unexpected shape: %+v", out)
	}
	// LER grows with scrub interval and shrinks with ECC strength.
	if out.Values[0][0] <= out.Values[0][1] {
		t.Fatalf("LER not decreasing in ECC: %v", out.Values[0])
	}
	if out.Values[0][0] >= out.Values[1][0] {
		t.Fatalf("LER not increasing in interval: %v vs %v", out.Values[0][0], out.Values[1][0])
	}
}

// TestCacheByteIdentical is the acceptance check: identical specs get
// byte-identical bodies, differently-spelled identical specs share the
// cache entry, and GET vs POST converge on the same key.
func TestCacheByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	_, first := get(t, ts, "/v1/ler?metric=R&eccs=8,16&intervals=16,64")

	resp, second := get(t, ts, "/v1/ler?metric=r&eccs=16,8,16&intervals=64,16")
	if string(first) != string(second) {
		t.Fatalf("bodies differ:\n%s\n%s", first, second)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("X-Cache = %q, want hit", xc)
	}

	post, err := http.Post(ts.URL+"/v1/ler", "application/json",
		strings.NewReader(`{"metric":"R","eccs":[8,16],"intervals":[16,64]}`))
	if err != nil {
		t.Fatal(err)
	}
	third, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if string(first) != string(third) {
		t.Fatalf("POST body differs from GET:\n%s\n%s", first, third)
	}
	if xc := post.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("POST X-Cache = %q, want hit", xc)
	}
	if hits := srv.reg.Sink("server").Counter("cache.hits").Value(); hits < 2 {
		t.Fatalf("cache.hits = %d, want >= 2", hits)
	}
	if miss := srv.reg.Sink("server").Counter("cache.misses").Value(); miss != 1 {
		t.Fatalf("cache.misses = %d, want 1", miss)
	}
}

func TestPolicyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/v1/policy?metric=R&e=8&s=16&w=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out policyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.E != 8 || out.S != 16 || out.W != 1 {
		t.Fatalf("echo mismatch: %+v", out)
	}
	if out.TargetFirst <= 0 || out.FirstInterval < 0 {
		t.Fatalf("degenerate probabilities: %+v", out)
	}
}

func TestMCEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/v1/mc?cells=2000&seed=7&shards=8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out mcResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.FirstFailSeconds <= 0 || out.MedianSeconds < out.P01Seconds {
		t.Fatalf("implausible quantiles: %+v", out)
	}
	// Determinism across requests is the cache's job, but determinism
	// across processes is the engine's: a fresh identical request after
	// cache bypass (different server) must match. Covered by the lifetime
	// package; here we just pin the cached path.
	_, again := get(t, ts, "/v1/mc?cells=2000&seed=7&shards=8")
	if string(body) != string(again) {
		t.Fatal("identical MC specs returned different bytes")
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/v1/compare?benchmark=gcc&schemes=ideal,scrubbing&budget=20000&seed=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out compareResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Rows[0].Scheme != "Ideal" {
		t.Fatalf("rows: %+v", out.Rows)
	}
	if out.Rows[0].NormExecTime != 1.0 {
		t.Fatalf("first row not the normalization base: %+v", out.Rows[0])
	}
	if out.Rows[1].ExecSeconds <= 0 {
		t.Fatalf("scrubbing exec time missing: %+v", out.Rows[1])
	}
}

func TestSchemesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/v1/schemes?spec=lwt:k=8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out schemesResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Resolved != "LWT-8" {
		t.Fatalf("resolved = %q, want LWT-8", out.Resolved)
	}
	if len(out.Grammars) == 0 || len(out.Sets["readduo"]) == 0 {
		t.Fatalf("introspection empty: %+v", out)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{
		"/v1/ler?metric=Q",
		"/v1/ler?eccs=4&bogus=1",
		"/v1/policy?e=8&s=0",
		"/v1/mc?cells=-5",
		"/v1/compare?benchmark=nope&schemes=ideal",
		"/v1/compare?benchmark=gcc&schemes=bogus",
		// NaN and ±Inf parse as floats and pass range checks written as
		// comparisons; finite MC inputs can overflow to +Inf lifetimes.
		"/v1/mc?cells=100&sigma=NaN",
		"/v1/mc?cells=100&median_endurance=Inf",
		"/v1/mc?cells=100&wear_rate=NaN",
		"/v1/mc?cells=100&sigma=-Inf",
		"/v1/mc?cells=100&wear_rate=1e-320",
		"/v1/mc?cells=100&median_endurance=1e308&sigma=5",
		"/v1/policy?metric=M&e=8&s=NaN&w=1",
		"/v1/policy?e=8&s=Inf&w=1",
		"/v1/policy?e=8&s=16&w=1&temp=NaN",
		"/v1/ler?metric=R&intervals=NaN&eccs=8",
		"/v1/ler?metric=R&intervals=16,+Inf&eccs=8",
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", path, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q", path, body)
		}
	}
}

// TestSaturationReturns429 deterministically saturates the pool (white
// box: occupy the workers and the queue directly), then checks the HTTP
// mapping: 429 with a Retry-After hint.
func TestSaturationReturns429(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	defer close(block)
	// One task executing + one queued = saturated. The first Submit
	// blocks until the worker picks it up; the second parks in the
	// queue buffer. Both are deterministic, unlike TrySubmit against
	// workers that may not have started receiving yet.
	for i := 0; i < 2; i++ {
		if err := srv.pool.Submit(context.Background(), func(int) { <-block }); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}

	resp, body := get(t, ts, "/v1/ler?eccs=8&intervals=16")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if rej := srv.reg.Sink("server").Counter("compute.rejected").Value(); rej != 1 {
		t.Fatalf("compute.rejected = %d, want 1", rej)
	}
}

// TestComputeTimeoutReturns504 drives a compare whose instruction budget
// cannot finish inside the compute deadline.
func TestComputeTimeoutReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{ComputeTimeout: time.Millisecond})
	resp, body := get(t, ts, "/v1/compare?benchmark=mcf&schemes=ideal,scrubbing,tlc&budget=2000000")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
}

// TestClientCancellationPropagates starts a heavy request, abandons it,
// and verifies the computation actually stops: the pool drains back to
// depth zero long before the work could have finished.
func TestClientCancellationPropagates(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET",
		ts.URL+"/v1/mc?cells=10000000&shards=64", nil)
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	// Wait for the computation to be admitted, then abandon the request.
	deadline := time.Now().Add(2 * time.Second)
	for srv.pool.Depth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client should observe its own cancellation")
	}
	for srv.pool.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool depth still %d: cancellation did not reach the kernel", srv.pool.Depth())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	srv, err := New(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusOK)
	check("/v1/policy?e=8&s=16", http.StatusOK)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is closed, but the mux still answers (a drain-phase
	// probe through a shared handler would see 503).
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after shutdown: %d, want 200 (liveness survives drain)", rec.Code)
	}
}

// TestStatusz checks the operational snapshot: backend kind, per-tier
// cache statistics with observed hit/miss counts, pool depth and
// singleflight gauge all present and coherent.
func TestStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{DiskCacheDir: t.TempDir(), DiskCacheBytes: 1 << 20})
	get(t, ts, "/v1/policy?e=8&s=16") // miss, computes
	get(t, ts, "/v1/policy?e=8&s=16") // hit in the heap tier

	resp, body := get(t, ts, "/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out statuszResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Backend != "local" {
		t.Fatalf("backend = %q, want local", out.Backend)
	}
	if len(out.CacheTiers) != 2 || out.CacheTiers[0].Name != "lru" || out.CacheTiers[1].Name != "disk" {
		t.Fatalf("cache tiers: %+v", out.CacheTiers)
	}
	if out.CacheTiers[0].Entries != 1 || out.CacheTiers[0].Hits != 1 {
		t.Fatalf("heap tier stats: %+v", out.CacheTiers[0])
	}
	if out.CacheTiers[1].Entries != 1 {
		t.Fatalf("disk tier missing the write-through entry: %+v", out.CacheTiers[1])
	}
	if out.PoolDepth != 0 || out.InflightFlights != 0 {
		t.Fatalf("idle server shows depth=%d flights=%d", out.PoolDepth, out.InflightFlights)
	}
}

// faultBackend injects backend failures per request, for taxonomy and
// cache-poisoning tests at the HTTP layer.
type faultBackend struct {
	errs chan error // one error consumed per Compute; nil computes "ok"
}

func (f *faultBackend) Compute(ctx context.Context, key string, spec backend.Spec) ([]byte, error) {
	select {
	case err := <-f.errs:
		if err != nil {
			return nil, err
		}
	default:
	}
	return []byte("{\"ok\":true}\n"), nil
}
func (f *faultBackend) Depth() int   { return 0 }
func (f *faultBackend) Close() error { return nil }

// TestBackendFaultTaxonomy drives injected backend failures through the
// full HTTP path: an open circuit maps to 503, a worker's deterministic
// spec rejection to 400, and neither poisons the cache — the next
// request for the same key recomputes and succeeds.
func TestBackendFaultTaxonomy(t *testing.T) {
	fb := &faultBackend{errs: make(chan error, 2)}
	srv, ts := newTestServer(t, Config{Backend: fb})

	fb.errs <- backend.ErrCircuitOpen
	resp, body := get(t, ts, "/v1/policy?e=8&s=16")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("circuit open: status %d, want 503 (%s)", resp.StatusCode, body)
	}

	fb.errs <- backend.BadSpecError{Msg: "worker refused: e out of range"}
	resp, body = get(t, ts, "/v1/policy?e=8&s=16")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// Neither failure may have been cached: this request must recompute.
	resp, body = get(t, ts, "/v1/policy?e=8&s=16")
	if resp.StatusCode != http.StatusOK || string(body) != "{\"ok\":true}\n" {
		t.Fatalf("after faults: status %d body %q", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("X-Cache = %q, want miss (faults must not cache)", xc)
	}
	if errs := srv.reg.Sink("server").Counter("compute.errors").Value(); errs != 2 {
		t.Fatalf("compute.errors = %d, want 2", errs)
	}
}

// TestShutdownDrainsInFlight verifies the graceful path: a request in
// flight when Shutdown begins completes with a real response.
func TestShutdownDrainsInFlight(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	srv, err := New(Config{Addr: "127.0.0.1:0", Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/v1/mc?cells=200000&shards=16")
		if err != nil {
			got <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	// Give the request a moment to be admitted, then drain. A fast
	// machine may finish the request before we observe it; that still
	// exercises the (trivial) drain path, so the wait is bounded.
	admitDeadline := time.Now().Add(2 * time.Second)
	for srv.pool.Depth() == 0 && time.Now().Before(admitDeadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := <-got; code != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", code)
	}
}
